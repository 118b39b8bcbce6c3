package graph

import (
	"testing"

	"mario/internal/pipeline"
	"mario/internal/sim"
)

// TestOffChainIsTheSubsetTest checks offChain's two shapes against what they
// stand for, exhaustively on short lists: for every boundary, moved group and
// buffered-or-travelling send, and every chain segment [u, v], the predicate
// holds exactly when apply leaves each instruction of the segment between the
// segment's endpoints — and always for a segment on another device.
func TestOffChainIsTheSubsetTest(t *testing.T) {
	eng := NewEngines()
	for n := 3; n <= 9; n++ {
		for b := 0; b < n; b++ {
			for gs := b + 1; gs < n; gs++ {
				for end := gs + 1; end <= n; end++ {
					for _, p := range []prepose{
						{b: b, g: fwGroup{start: gs, end: end, saIdx: -1}},
						{b: b, g: fwGroup{start: gs, end: end, saIdx: end - 1}, moveSA: true},
						{b: b, g: fwGroup{start: gs, end: end, saIdx: end - 1}},
					} {
						if p.movedEnd() == gs {
							continue // a group that is only its send moves nothing
						}
						// apply edits in place: every case starts from a
						// fresh list, instruction i being micro i.
						list := make([]pipeline.Instr, n)
						for i := range list {
							list[i] = pipeline.Instr{Kind: pipeline.Forward, Micro: int32(i)}
						}
						c := &pipeline.Schedule{Lists: [][]pipeline.Instr{nil, list}}
						p.apply(c, 1)
						pos := make([]int, n)
						for at, in := range c.Lists[1] {
							pos[in.Micro] = at
						}
						for u := 0; u < n; u++ {
							for v := u; v < n; v++ {
								kept := true
								for i := u; i <= v; i++ {
									kept = kept && pos[u] <= pos[i] && pos[i] <= pos[v]
								}
								eng.chain = []sim.Segment{{Dev: 0, Lo: int32(u), Hi: int32(v)}}
								if !eng.offChain(1, p) {
									t.Fatalf("n=%d %+v: segment [%d,%d] of another device blocks the filter", n, p, u, v)
								}
								eng.chain[0].Dev = 1
								if got := eng.offChain(1, p); got != kept {
									t.Fatalf("n=%d %+v: offChain = %v for segment [%d,%d], which apply keeps together: %v", n, p, got, u, v, kept)
								}
							}
						}
					}
				}
			}
		}
	}
}
