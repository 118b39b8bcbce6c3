package experiments

import (
	"fmt"
	"strings"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/viz"
)

// SchemeCatalogueEntry is one scheme of the registry rendered on the demo
// grid: an ASCII Gantt chart plus a one-line stats summary, used to pin the
// diagrams in docs/SCHEMES.md.
type SchemeCatalogueEntry struct {
	Scheme  pipeline.Scheme
	Diagram string
}

// SchemeCatalogue renders every registered scheme on the shared demo grid
// (4 devices, 8 micro-batches, uniform F=t, B=2t costs) through the
// simulator. The output is deterministic and golden-pinned in
// docs/SCHEMES.md, keyed by <!-- golden:scheme-NAME --> markers.
func SchemeCatalogue() ([]SchemeCatalogueEntry, error) {
	const d, n = 4, 8
	var entries []SchemeCatalogueEntry
	for _, sch := range scheme.Schemes() {
		s, err := scheme.Build(sch, scheme.Config{Devices: d, Micros: n})
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", sch, err)
		}
		e := cost.Uniform(s.NumStages(), 1, 2, 0.25)
		r, err := sim.Simulate(s, e, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("simulate %s: %w", sch, err)
		}
		worst := 0.0
		for dev := 0; dev < s.NumDevices(); dev++ {
			if b := r.BubbleRatio(dev); b > worst {
				worst = b
			}
		}
		lo, hi := r.MinMaxPeak()
		var b strings.Builder
		b.WriteString(viz.ASCII(r.Timeline, 1))
		fmt.Fprintf(&b, "worst bubble %.4f, peak mem [%.3g, %.3g]\n", worst, lo, hi)
		entries = append(entries, SchemeCatalogueEntry{Scheme: sch, Diagram: b.String()})
	}
	return entries, nil
}
