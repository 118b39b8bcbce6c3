// Package viz renders pipeline schedules and simulated timelines (§5.2
// "Visualization", Fig. 5): an ASCII Gantt chart for terminals, an SVG
// export, and a Chrome-trace JSON export loadable in chrome://tracing or
// Perfetto. Visualisation lets users observe pipeline execution states and
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
	"mario/internal/sim"
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

// ASCII renders the simulated timeline as a Gantt chart with one row per
// device and one column per time quantum; bubbles appear as spaces.
// Communication instructions are omitted (they overlap compute in the
// charts of the paper). quantum ≤ 0 picks one that fits the chart into
// width ~160 columns.
func ASCII(res *sim.Result, quantum float64) string {
	if quantum <= 0 {
		quantum = res.Total / 160
		if quantum <= 0 {
			quantum = 1
		}
	}
	var b strings.Builder
	cols := int(math.Ceil(res.Total/quantum)) + 1
	for d, spans := range res.Timeline {
		row := make([]byte, cols)
		for i := range row {
			row[i] = ' '
		}
		for _, sp := range spans {
			if !sp.Instr.Kind.IsCompute() {
				continue
			}
			lo := int(sp.Start / quantum)
			hi := int(math.Ceil(sp.End / quantum))
			if hi <= lo {
				hi = lo + 1
			}
			g := cell(sp.Instr.Kind)
			for i := lo; i < hi && i < cols; i++ {
				row[i] = g
			}
		}
		fmt.Fprintf(&b, "dev%-2d |%s|\n", d, strings.TrimRight(string(row), " "))
	}
	fmt.Fprintf(&b, "total %.4g (F=forward C=ckpt-forward B=backward b=bwd-input w=bwd-weight R=recompute A=allreduce O=optstep)\n", res.Total)
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

// SVG writes the timeline as a standalone SVG document.
func SVG(w io.Writer, res *sim.Result) error {
	const rowH, pad, width = 28, 4, 1200
	if res.Total <= 0 {
		return fmt.Errorf("viz: empty timeline")
	}
	scale := float64(width-2*pad) / res.Total
	height := len(res.Timeline)*rowH + 2*pad
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`+"\n",
		width, height); err != nil {
		return err
	}
	for d, spans := range res.Timeline {
		y := pad + d*rowH
		for _, sp := range spans {
			if !sp.Instr.Kind.IsCompute() {
				continue
			}
			x := pad + int(sp.Start*scale)
			wd := int((sp.End - sp.Start) * scale)
			if wd < 1 {
				wd = 1
			}
			if _, err := fmt.Fprintf(w,
				`<rect x="%d" y="%d" width="%d" height="%d" fill="%s"><title>dev%d %s [%.4g,%.4g]</title></rect>`+"\n",
				x, y, wd, rowH-6, svgColor(sp.Instr.Kind), d, sp.Instr, sp.Start, sp.End); err != nil {
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

// ChromeTrace writes the simulator's predicted timeline in the Chrome
// trace-event JSON format (open with chrome://tracing or Perfetto). Compute
// instructions land on tid 0, communication on tid 1, of the device's pid.
func ChromeTrace(w io.Writer, res *sim.Result) error {
	var events []traceEvent
	for d, spans := range res.Timeline {
		for _, sp := range spans {
			tid, cat := 0, "compute"
			if sp.Instr.Kind.IsComm() {
				tid, cat = 1, "comm"
			}
			events = append(events, traceEvent{
				Name: sp.Instr.String(),
				Cat:  cat,
				Ph:   "X",
				Ts:   sp.Start * 1e6,
				Dur:  (sp.End - sp.Start) * 1e6,
				PID:  d,
				TID:  tid,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// ChromeTraceMeasured writes a measured run's obs event stream in the Chrome
// trace-event JSON format — the measured counterpart of ChromeTrace, so a
// predicted and a measured trace of the same schedule can be opened side by
// side in Perfetto. Each event carries its iteration, queue wait and modeled
// memory as args.
func ChromeTraceMeasured(w io.Writer, events []obs.Event) error {
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
			Name: e.Instr().String(),
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
