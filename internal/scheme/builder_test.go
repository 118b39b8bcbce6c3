package scheme

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"mario/internal/pipeline"
)

// TestBuilderReuseMatchesFresh: one Builder builds every registry scheme over
// FuzzSchemeBuild's domain, largest shapes first, then smallest first, so its
// scratch shrinks and regrows across schemes of every kind. Each build must
// equal a fresh Build's, and a schedule built earlier must still equal its
// own fresh copy after the builds that followed it: nothing a build returns
// aliases the Builder's scratch.
func TestBuilderReuseMatchesFresh(t *testing.T) {
	type job struct {
		s   pipeline.Scheme
		cfg Config
	}
	var jobs []job
	for d := 1; d <= 12; d++ {
		for n := 1; n <= 24; n++ {
			for _, s := range Schemes() {
				chunks := []int{0} // only Interleave reads Chunks
				if s == pipeline.SchemeInterleave {
					chunks = []int{0, 1, 2, 3, 4}
				}
				for _, v := range chunks {
					jobs = append(jobs, job{s, Config{Devices: d, Micros: n, Chunks: v}})
				}
			}
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		return jobs[i].cfg.Devices*jobs[i].cfg.Micros > jobs[j].cfg.Devices*jobs[j].cfg.Micros
	})
	order := append([]job(nil), jobs...)
	for i := len(jobs) - 1; i >= 0; i-- {
		order = append(order, jobs[i])
	}

	type built struct {
		what       string
		got, fresh *pipeline.Schedule
	}
	check := func(b built) {
		t.Helper()
		if !reflect.DeepEqual(b.got, b.fresh) {
			t.Fatalf("%s: the reused Builder's schedule differs from a fresh Build's\nreused:\n%s\nfresh:\n%s", b.what, b.got, b.fresh)
		}
	}
	var (
		b       Builder
		prev    built
		sampled []built
	)
	for i, j := range order {
		what := fmt.Sprintf("%s d=%d n=%d v=%d (build %d)", j.s, j.cfg.Devices, j.cfg.Micros, j.cfg.Chunks, i)
		got, err := b.Build(j.s, j.cfg)
		fresh, ferr := Build(j.s, j.cfg)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("%s: the reused Builder says %v, a fresh Build %v", what, err, ferr)
		}
		if prev.got != nil {
			check(prev)
		}
		if err != nil {
			continue
		}
		prev = built{what, got, fresh}
		check(prev)
		if i%16 == 0 {
			sampled = append(sampled, prev)
		}
	}
	for _, s := range sampled {
		check(s)
	}
}

// TestBuilderWarmAllocs: a Builder warmed on a bigger shape allocates, per
// build, only the schedule it returns — the placement and its resolved view,
// the parts, the list header, the Schedule and its one list backing — so the
// count is the same at every smaller shape, and below a fresh Build's.
func TestBuilderWarmAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	shapes := []Config{{Devices: 16, Micros: 64}, {Devices: 8, Micros: 32}, {Devices: 4, Micros: 8}, {Devices: 2, Micros: 4}}
	for _, s := range Schemes() {
		var b Builder
		build := func(cfg Config) {
			if _, err := b.Build(s, cfg); err != nil {
				t.Fatal(err)
			}
		}
		build(shapes[0])
		want := testing.AllocsPerRun(5, func() { build(shapes[0]) })
		if want > 11 {
			t.Errorf("%s: a warm %+v build allocates %v objects, want ≤ 11", s, shapes[0], want)
		}
		for _, cfg := range shapes[1:] {
			if got := testing.AllocsPerRun(5, func() { build(cfg) }); got != want {
				t.Errorf("%s: a warm %+v build allocates %v objects, %+v allocates %v: the count depends on the shape", s, cfg, got, shapes[0], want)
			}
		}
		fresh := testing.AllocsPerRun(5, func() {
			if _, err := Build(s, shapes[0]); err != nil {
				t.Fatal(err)
			}
		})
		if want >= fresh {
			t.Errorf("%s: a warm %+v build allocates %v objects, a fresh one %v", s, shapes[0], want, fresh)
		}
	}
}
