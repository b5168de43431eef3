package profile

import (
	"fmt"
	"html/template"
	"io"
)

// WriteHTML renders the profile as one self-contained HTML page — inline
// CSS only, no external assets or scripts — with the critical-path cause
// bars, the per-phase energy table, and a colored mesh heatmap.
func (p *Profile) WriteHTML(w io.Writer) error {
	return htmlTmpl.Execute(w, newHTMLView(p))
}

// htmlView is the template's flattened, pre-formatted model.
type htmlView struct {
	Title   string
	Warning string
	Causes  []htmlCause
	Phases  []htmlPhase
	Total   htmlPhase
	Grid    [][]htmlCell
	Links   []htmlLink
	Faults  *htmlFaults
}

type htmlFaults struct {
	Halted   string
	Rows     []htmlFaultRow
	Overhead htmlFaultRow
}

type htmlFaultRow struct {
	Kind, Target, Events, Cycles, EnergyJ, Note string
}

type htmlCause struct {
	Name   string
	Cycles string
	Share  string
	Width  float64 // percent, for the bar
}

type htmlPhase struct {
	Name, Cycles, Bound, Roofline            string
	Compute, LocalMem, NoC, ELink, Static    string
	TotalJ, FlopPerCycle, BytePerCycle, Note string
}

type htmlCell struct {
	Label string
	Busy  string
	Color template.CSS
}

type htmlLink struct {
	Name, Blocks, Bytes, SendWait, RecvWait string
}

func newHTMLView(p *Profile) htmlView {
	v := htmlView{
		Title: fmt.Sprintf("profile — epiphany %dx%d, %d cores, %.0f cycles (%.3f ms)",
			p.Rows, p.Cols, p.Cores, p.RunCycles, p.Seconds*1e3),
	}
	if p.DroppedSpans > 0 {
		v.Warning = fmt.Sprintf("%d spans dropped (trace ring overflow): the critical path may be truncated; rerun with a larger trace capacity.", p.DroppedSpans)
	}
	for _, cause := range p.Critical.Causes() {
		cy := p.Critical.ByCause[cause]
		share := cy / p.RunCycles
		v.Causes = append(v.Causes, htmlCause{
			Name:   cause,
			Cycles: fmt.Sprintf("%.0f", cy),
			Share:  fmt.Sprintf("%.1f%%", share*100),
			Width:  share * 100,
		})
	}
	for _, ph := range p.Phases {
		name, bound := fmt.Sprintf("%d", ph.Index), ph.Bound
		if ph.Index < 0 {
			name, bound = "tail", "-"
		}
		v.Phases = append(v.Phases, htmlPhase{
			Name: name, Cycles: fmt.Sprintf("%.0f", ph.Cycles()),
			Bound: bound, Roofline: ph.Roofline.Bound(),
			Compute:      fmt.Sprintf("%.2e", ph.Energy.ComputeJ),
			LocalMem:     fmt.Sprintf("%.2e", ph.Energy.LocalMemJ),
			NoC:          fmt.Sprintf("%.2e", ph.Energy.NoCJ),
			ELink:        fmt.Sprintf("%.2e", ph.Energy.ELinkJ),
			Static:       fmt.Sprintf("%.2e", ph.Energy.StaticJ),
			TotalJ:       fmt.Sprintf("%.3e", ph.Energy.Total()),
			FlopPerCycle: fmt.Sprintf("%.2f", ph.Roofline.FlopPerCycle),
			BytePerCycle: fmt.Sprintf("%.3f", ph.Roofline.BytePerCycle),
		})
	}
	t := p.TotalEnergy
	v.Total = htmlPhase{
		Name: "total", Cycles: fmt.Sprintf("%.0f", p.RunCycles),
		Compute:  fmt.Sprintf("%.2e", t.ComputeJ),
		LocalMem: fmt.Sprintf("%.2e", t.LocalMemJ),
		NoC:      fmt.Sprintf("%.2e", t.NoCJ),
		ELink:    fmt.Sprintf("%.2e", t.ELinkJ),
		Static:   fmt.Sprintf("%.2e", t.StaticJ),
		TotalJ:   fmt.Sprintf("%.3e", t.Total()),
		Note:     fmt.Sprintf("avg %.2f W", t.AveragePower(p.Seconds)),
	}
	for r := 0; r < p.Heatmap.Rows; r++ {
		row := make([]htmlCell, p.Heatmap.Cols)
		for c := 0; c < p.Heatmap.Cols; c++ {
			busy := p.Heatmap.CoreBusy[r*p.Heatmap.Cols+c]
			row[c] = htmlCell{
				Label: fmt.Sprintf("%d", r*p.Heatmap.Cols+c),
				Busy:  fmt.Sprintf("%.0f%%", busy*100),
				// White (idle) to saturated red (fully busy).
				Color: template.CSS(fmt.Sprintf("rgb(255,%d,%d)",
					int(255*(1-busy)), int(255*(1-busy)))),
			}
		}
		v.Grid = append(v.Grid, row)
	}
	if d := p.Faults; d != nil {
		f := &htmlFaults{}
		if len(d.HaltedCores) > 0 {
			f.Halted = fmt.Sprintf("halted cores %v, %d slot(s) remapped", d.HaltedCores, d.RemappedSlots)
		}
		for _, r := range d.Rows {
			f.Rows = append(f.Rows, htmlFaultRow{
				Kind: r.Kind, Target: r.Target,
				Events:  fmt.Sprintf("%d", r.Events),
				Cycles:  fmt.Sprintf("%.0f", r.Cycles),
				EnergyJ: fmt.Sprintf("%.3e", r.EnergyJ),
			})
		}
		f.Overhead = htmlFaultRow{
			Kind:    "overhead",
			Cycles:  fmt.Sprintf("%.0f", d.OverheadCycles),
			EnergyJ: fmt.Sprintf("%.3e", d.OverheadEnergyJ),
			Note:    fmt.Sprintf("%.2f%% of run", 100*d.OverheadCycles/p.RunCycles),
		}
		v.Faults = f
	}
	for _, l := range p.Heatmap.Links {
		v.Links = append(v.Links, htmlLink{
			Name:     fmt.Sprintf("%d → %d (%d hops)", l.From, l.To, l.Hops),
			Blocks:   fmt.Sprintf("%d", l.Blocks),
			Bytes:    fmt.Sprintf("%d", l.Bytes),
			SendWait: fmt.Sprintf("%.0f", l.SendWait),
			RecvWait: fmt.Sprintf("%.0f", l.RecvWait),
		})
	}
	return v
}

var htmlTmpl = template.Must(template.New("profile").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 64em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; } td, th { padding: 2px 10px; text-align: right; }
th { border-bottom: 1px solid #999; } td:first-child, th:first-child { text-align: left; }
tr.total td { border-top: 1px solid #999; font-weight: 600; }
.warn { background: #fff3cd; border: 1px solid #cc9a06; padding: 0.5em 1em; }
.bar { display: inline-block; height: 0.8em; background: #4a7ebb; vertical-align: middle; }
.grid td { width: 3.2em; height: 3.2em; text-align: center; border: 1px solid #ccc; }
.grid small { color: #666; display: block; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
{{if .Warning}}<p class="warn">⚠ {{.Warning}}</p>{{end}}

<h2>Critical path</h2>
<table>
<tr><th>cause</th><th>cycles</th><th>share</th><th style="text-align:left"></th></tr>
{{range .Causes}}<tr><td>{{.Name}}</td><td>{{.Cycles}}</td><td>{{.Share}}</td>
<td style="text-align:left"><span class="bar" style="width:{{printf "%.1f" .Width}}%; min-width:1px"></span></td></tr>
{{end}}</table>

<h2>Per-phase energy attribution</h2>
<table>
<tr><th>phase</th><th>cycles</th><th>bound</th><th>roofline</th><th>compute J</th><th>local mem J</th><th>NoC J</th><th>eLink J</th><th>static J</th><th>total J</th><th>flop/cy</th><th>B/cy</th></tr>
{{range .Phases}}<tr><td>{{.Name}}</td><td>{{.Cycles}}</td><td>{{.Bound}}</td><td>{{.Roofline}}</td><td>{{.Compute}}</td><td>{{.LocalMem}}</td><td>{{.NoC}}</td><td>{{.ELink}}</td><td>{{.Static}}</td><td>{{.TotalJ}}</td><td>{{.FlopPerCycle}}</td><td>{{.BytePerCycle}}</td></tr>
{{end}}{{with .Total}}<tr class="total"><td>{{.Name}}</td><td>{{.Cycles}}</td><td></td><td></td><td>{{.Compute}}</td><td>{{.LocalMem}}</td><td>{{.NoC}}</td><td>{{.ELink}}</td><td>{{.Static}}</td><td>{{.TotalJ}}</td><td colspan="2">{{.Note}}</td></tr>{{end}}
</table>

{{with .Faults}}<h2>Fault degradation</h2>
{{if .Halted}}<p>{{.Halted}}</p>{{end}}
<table>
<tr><th>kind</th><th>target</th><th>events</th><th>cycles</th><th>energy J</th><th></th></tr>
{{range .Rows}}<tr><td>{{.Kind}}</td><td>{{.Target}}</td><td>{{.Events}}</td><td>{{.Cycles}}</td><td>{{.EnergyJ}}</td><td></td></tr>
{{end}}{{with .Overhead}}<tr class="total"><td>{{.Kind}}</td><td></td><td></td><td>{{.Cycles}}</td><td>{{.EnergyJ}}</td><td>{{.Note}}</td></tr>{{end}}
</table>{{end}}

<h2>Mesh heatmap (busy fraction)</h2>
<table class="grid">
{{range .Grid}}<tr>{{range .}}<td style="background:{{.Color}}"><small>core {{.Label}}</small>{{.Busy}}</td>{{end}}</tr>
{{end}}</table>

{{if .Links}}<h2>Link occupancy</h2>
<table>
<tr><th>link</th><th>blocks</th><th>bytes</th><th>send wait</th><th>recv wait</th></tr>
{{range .Links}}<tr><td>{{.Name}}</td><td>{{.Blocks}}</td><td>{{.Bytes}}</td><td>{{.SendWait}}</td><td>{{.RecvWait}}</td></tr>
{{end}}</table>{{end}}
</body>
</html>
`))
