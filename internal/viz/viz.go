// Package viz renders the record stream of a pipeline run (§5.2
// "Visualization", Fig. 5): an ASCII Gantt chart for terminals, an SVG
// export, and a Chrome-trace JSON export loadable in chrome://tracing or
// Perfetto. A stream is a simulated timeline (sim.Result.Timeline) or a
// measured run's events (cluster.Report.Events), and each renderer draws
// either. Visualisation lets users observe pipeline execution states and
// bubble distribution instead of relying solely on throughput numbers.
package viz

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"mario/internal/obs"
	"mario/internal/pipeline"
)

// cell is the glyph per instruction kind in the ASCII chart.
func cell(k pipeline.Kind) byte {
	switch k {
	case pipeline.Forward:
		return 'F'
	case pipeline.CkptForward:
		return 'C'
	case pipeline.Backward:
		return 'B'
	case pipeline.Recompute:
		return 'R'
	case pipeline.AllReduce:
		return 'A'
	case pipeline.OptimizerStep:
		return 'O'
	case pipeline.BackwardInput:
		return 'b'
	case pipeline.BackwardWeight:
		return 'w'
	}
	return '.'
}

// span returns the stream's device count and its makespan, the latest end.
func span(events []obs.Event) (devices int, total float64) {
	for _, e := range events {
		devices, total = max(devices, e.Device+1), max(total, e.End)
	}
	return devices, total
}

// ASCII renders the record stream as a Gantt chart with one row per device
// and one column per time quantum; bubbles appear as spaces. Communication
// instructions are omitted (they overlap compute in the charts of the
// paper). quantum ≤ 0 picks one that fits the chart into width ~160 columns.
func ASCII(events []obs.Event, quantum float64) string {
	devices, total := span(events)
	if quantum <= 0 {
		quantum = total / 160
		if quantum <= 0 {
			quantum = 1
		}
	}
	cols := int(math.Ceil(total/quantum)) + 1
	rows := make([][]byte, devices)
	for d := range rows {
		rows[d] = []byte(strings.Repeat(" ", cols))
	}
	for _, e := range events {
		if !e.Kind.IsCompute() {
			continue
		}
		lo := int(e.Start / quantum)
		hi := int(math.Ceil(e.End / quantum))
		if hi <= lo {
			hi = lo + 1
		}
		g := cell(e.Kind)
		for i := lo; i < hi && i < cols; i++ {
			rows[e.Device][i] = g
		}
	}
	var b strings.Builder
	for d, row := range rows {
		fmt.Fprintf(&b, "dev%-2d |%s|\n", d, strings.TrimRight(string(row), " "))
	}
	fmt.Fprintf(&b, "total %.4g (F=forward C=ckpt-forward B=backward b=bwd-input w=bwd-weight R=recompute A=allreduce O=optstep)\n", total)
	return b.String()
}

// svgColor maps kinds to fill colours.
func svgColor(k pipeline.Kind) string {
	switch k {
	case pipeline.Forward:
		return "#4C78A8"
	case pipeline.CkptForward:
		return "#72B7B2"
	case pipeline.Backward:
		return "#F58518"
	case pipeline.Recompute:
		return "#E45756"
	case pipeline.AllReduce:
		return "#B279A2"
	case pipeline.OptimizerStep:
		return "#54A24B"
	}
	return "#BAB0AC"
}

// SVG writes the record stream as a standalone SVG document. Each device's
// records are drawn, then its label: the stream is device-major, as both
// producers order it.
func SVG(w io.Writer, events []obs.Event) error {
	const rowH, pad, width = 28, 4, 1200
	devices, total := span(events)
	if total <= 0 {
		return fmt.Errorf("viz: empty timeline")
	}
	scale := float64(width-2*pad) / total
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`+"\n",
		width, devices*rowH+2*pad); err != nil {
		return err
	}
	next := 0
	for d := 0; d < devices; d++ {
		y := pad + d*rowH
		for ; next < len(events) && events[next].Device == d; next++ {
			e := events[next]
			if !e.Kind.IsCompute() {
				continue
			}
			x := pad + int(e.Start*scale)
			wd := int(e.Dur() * scale)
			if wd < 1 {
				wd = 1
			}
			if _, err := fmt.Fprintf(w,
				`<rect x="%d" y="%d" width="%d" height="%d" fill="%s"><title>dev%d %s [%.4g,%.4g]</title></rect>`+"\n",
				x, y, wd, rowH-6, svgColor(e.Kind), d, e.Instr, e.Start, e.End); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, `<text x="%d" y="%d" fill="#333">dev%d</text>`+"\n", pad, y+rowH-10, d); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</svg>\n")
	return err
}

// traceEvent is one Chrome-trace "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace writes the record stream in the Chrome trace-event JSON format
// (open with chrome://tracing or Perfetto), so a predicted and a measured
// trace of the same schedule can be opened side by side. Compute
// instructions land on tid 0, communication on tid 1, of the device's pid.
// Each event carries its iteration, queue wait and modeled memory as args.
func ChromeTrace(w io.Writer, events []obs.Event) error {
	out := make([]traceEvent, 0, len(events))
	for _, e := range events {
		tid, cat := 0, "compute"
		if e.Kind.IsComm() {
			tid, cat = 1, "comm"
		}
		args := map[string]any{"iter": e.Iter}
		if e.Wait > 0 {
			args["wait_us"] = e.Wait * 1e6
		}
		if e.Mem > 0 {
			args["mem_bytes"] = e.Mem
		}
		out = append(out, traceEvent{
			Name: e.Instr.String(),
			Cat:  cat,
			Ph:   "X",
			Ts:   e.Start * 1e6,
			Dur:  e.Dur() * 1e6,
			PID:  e.Device,
			TID:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}
