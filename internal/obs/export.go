package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteTraceEvent writes the collected tracks in the Chrome trace_event
// JSON format understood by Perfetto (https://ui.perfetto.dev) and
// chrome://tracing: metadata events naming each process and thread,
// followed by one complete ("ph":"X") event per span. Timestamps are in
// microseconds, converted from cycles with the tracer's clock. The output
// is deterministic: processes sorted by pid, tracks in creation order,
// spans in recording order.
func (tr *Tracer) WriteTraceEvent(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	for _, p := range tr.processes() {
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%q}}`, p.pid, p.name))
	}
	usPerCycle := 1e6 / tr.clockHz
	var buf []byte
	for _, t := range tr.Tracks() {
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
			t.pid, t.tid, t.name))
		for _, s := range t.Spans() {
			buf = buf[:0]
			buf = append(buf, `{"ph":"X","pid":`...)
			buf = strconv.AppendInt(buf, int64(t.pid), 10)
			buf = append(buf, `,"tid":`...)
			buf = strconv.AppendInt(buf, int64(t.tid), 10)
			buf = append(buf, `,"cat":"sim","name":"`...)
			buf = append(buf, s.Kind.String()...)
			buf = append(buf, `","ts":`...)
			buf = strconv.AppendFloat(buf, s.Start*usPerCycle, 'f', 3, 64)
			buf = append(buf, `,"dur":`...)
			buf = strconv.AppendFloat(buf, s.Duration()*usPerCycle, 'f', 3, 64)
			buf = append(buf, `}`...)
			emit(string(buf))
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
