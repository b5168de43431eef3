package profile

import "sarmany/internal/emu"

// Heatmap locates a run's activity on the physical mesh: per-core busy
// fractions, and per-link byte counts with the logical core-to-core links
// expanded onto the directed physical mesh edges their traffic actually
// crosses under the eGrid's XY (row-first) dimension-ordered routing.
type Heatmap struct {
	// Rows, Cols are the global core-grid dimensions — across every chip
	// of a multi-chip array. ChipRows/ChipCols give the chip-array
	// arrangement (omitted for a single chip), so consumers can draw the
	// chip boundaries the eLink bridges sit on.
	Rows     int `json:"rows"`
	Cols     int `json:"cols"`
	ChipRows int `json:"chip_rows,omitempty"`
	ChipCols int `json:"chip_cols,omitempty"`

	// CoreBusy[r*Cols+c] is the fraction of the run core (r,c) spent in
	// committed compute windows; CoreCycles its total active cycles.
	CoreBusy   []float64 `json:"core_busy"`
	CoreCycles []float64 `json:"core_cycles"`

	// Links is the logical link occupancy (streaming connections), and
	// MeshEdges the same traffic accumulated per physical directed edge.
	Links     []emu.LinkStat `json:"links"`
	MeshEdges []MeshEdge     `json:"mesh_edges"`
}

// MeshEdge is one directed physical mesh edge and the bytes routed over
// it. Edges carrying no traffic are omitted.
type MeshEdge struct {
	FromRow int    `json:"from_row"`
	FromCol int    `json:"from_col"`
	ToRow   int    `json:"to_row"`
	ToCol   int    `json:"to_col"`
	Bytes   uint64 `json:"bytes"`
}

// buildHeatmap computes the mesh view from per-core statistics and the
// logical link table.
func buildHeatmap(ch *emu.Chip) Heatmap {
	h := Heatmap{
		Rows: ch.P.GridRows(), Cols: ch.P.GridCols(),
		CoreBusy:   make([]float64, ch.P.NumCores()),
		CoreCycles: make([]float64, ch.P.NumCores()),
		Links:      ch.LinkStats(),
	}
	if ch.P.NumChips() > 1 {
		h.ChipRows, h.ChipCols = ch.P.GridRows()/ch.P.Rows, ch.P.GridCols()/ch.P.Cols
	}
	run := ch.MaxCycles()
	for i, c := range ch.Cores {
		h.CoreCycles[i] = c.Cycles()
		if run > 0 {
			h.CoreBusy[i] = c.Stats.ComputeCycles / run
		}
	}

	// Expand each logical link onto physical edges: XY routing goes along
	// the row (east/west) to the destination column, then along the
	// column (north/south).
	edges := map[[4]int]uint64{}
	for _, l := range h.Links {
		if l.Bytes == 0 {
			continue
		}
		r, c := l.From/h.Cols, l.From%h.Cols
		dr, dc := l.To/h.Cols, l.To%h.Cols
		for c != dc {
			nc := c + step(dc-c)
			edges[[4]int{r, c, r, nc}] += l.Bytes
			c = nc
		}
		for r != dr {
			nr := r + step(dr-r)
			edges[[4]int{r, c, nr, c}] += l.Bytes
			r = nr
		}
	}
	// Deterministic order: row-major by source, then destination.
	for r := 0; r < h.Rows; r++ {
		for c := 0; c < h.Cols; c++ {
			for _, d := range [][2]int{{r, c + 1}, {r, c - 1}, {r + 1, c}, {r - 1, c}} {
				if b := edges[[4]int{r, c, d[0], d[1]}]; b > 0 {
					h.MeshEdges = append(h.MeshEdges, MeshEdge{
						FromRow: r, FromCol: c, ToRow: d[0], ToCol: d[1], Bytes: b,
					})
				}
			}
		}
	}
	return h
}

// MaxEdgeBytes returns the hottest physical edge's byte count (0 when no
// link traffic was routed).
func (h Heatmap) MaxEdgeBytes() uint64 {
	var max uint64
	for _, e := range h.MeshEdges {
		if e.Bytes > max {
			max = e.Bytes
		}
	}
	return max
}

func step(d int) int {
	if d > 0 {
		return 1
	}
	return -1
}
