package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkGraphOptimize-8   4070   559046 ns/op   634984 B/op   427 allocs/op")
	if !ok {
		t.Fatal("parseLine rejected a valid bench line")
	}
	if r.Name != "BenchmarkGraphOptimize" || r.Procs != 8 || r.Iterations != 4070 {
		t.Errorf("parsed header = %q/%d/%d", r.Name, r.Procs, r.Iterations)
	}
	if r.NsPerOp == nil || *r.NsPerOp != 559046 || r.BytesPerOp == nil || *r.BytesPerOp != 634984 || r.AllocsPerOp == nil || *r.AllocsPerOp != 427 {
		t.Errorf("parsed values = %+v", r)
	}

	r, ok = parseLine("BenchmarkTunerSearch/workers=1 1 9070527158 ns/op 220 explored")
	if !ok || r.Name != "BenchmarkTunerSearch/workers=1" || r.Extra["explored"] != 220 {
		t.Errorf("custom-metric line parsed as %+v (ok=%v)", r, ok)
	}

	for _, line := range []string{
		"ok   mario   0.026s",
		"PASS",
		"Benchmark only-name-no-iters",
		"BenchmarkX notanumber 5 ns/op",
		"",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine accepted non-result line %q", line)
		}
	}
}

// writeBaseline writes a minimal baseline artifact and returns its path.
func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const baseJSON = `[
  {"name": "BenchmarkA", "iterations": 100, "ns_per_op": 1000},
  {"name": "BenchmarkB", "iterations": 100, "ns_per_op": 2000},
  {"name": "BenchmarkGone", "iterations": 100, "ns_per_op": 3000}
]`

func curResults(t *testing.T, bench string) []result {
	t.Helper()
	rs, err := parseBench(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestGateAgainst(t *testing.T) {
	base := writeBaseline(t, baseJSON)

	t.Run("within threshold passes", func(t *testing.T) {
		var out strings.Builder
		cur := curResults(t, "BenchmarkA 100 1100 ns/op\nBenchmarkB 100 1900 ns/op\n")
		regressed, err := gateAgainst(&out, cur, base, 15, nil, timeMetrics)
		if err != nil || regressed {
			t.Fatalf("regressed=%v err=%v\n%s", regressed, err, out.String())
		}
		if !strings.Contains(out.String(), "GONE   BenchmarkGone") {
			t.Errorf("missing GONE report:\n%s", out.String())
		}
	})

	t.Run("regression fails", func(t *testing.T) {
		var out strings.Builder
		cur := curResults(t, "BenchmarkA 100 1200 ns/op\n")
		regressed, err := gateAgainst(&out, cur, base, 15, nil, timeMetrics)
		if err != nil || !regressed {
			t.Fatalf("regressed=%v err=%v\n%s", regressed, err, out.String())
		}
		if !strings.Contains(out.String(), "WORSE  BenchmarkA") {
			t.Errorf("missing WORSE verdict:\n%s", out.String())
		}
	})

	t.Run("prefix filter scopes the gate", func(t *testing.T) {
		var out strings.Builder
		// BenchmarkA regresses hugely but is filtered out; only B is gated.
		cur := curResults(t, "BenchmarkA 100 9000 ns/op\nBenchmarkB 100 2000 ns/op\n")
		regressed, err := gateAgainst(&out, cur, base, 15, []string{"BenchmarkB"}, timeMetrics)
		if err != nil || regressed {
			t.Fatalf("regressed=%v err=%v\n%s", regressed, err, out.String())
		}
	})

	t.Run("new benchmark never fails the gate", func(t *testing.T) {
		var out strings.Builder
		cur := curResults(t, "BenchmarkNew 100 99999 ns/op\nBenchmarkA 100 1000 ns/op\n")
		regressed, err := gateAgainst(&out, cur, base, 15, nil, timeMetrics)
		if err != nil || regressed {
			t.Fatalf("regressed=%v err=%v\n%s", regressed, err, out.String())
		}
		if !strings.Contains(out.String(), "NEW    BenchmarkNew") {
			t.Errorf("missing NEW report:\n%s", out.String())
		}
	})

	// go test -count N repeats every row; the gate judges the fastest repeat
	// of each benchmark, once, and a repeat is never reported as NEW.
	t.Run("repeated rows fold to the fastest", func(t *testing.T) {
		var out strings.Builder
		cur := curResults(t, "BenchmarkA 100 1300 ns/op\nBenchmarkB 100 2600 ns/op\n"+
			"BenchmarkA 100 1100 ns/op\nBenchmarkB 100 2500 ns/op\nBenchmarkA 100 1250 ns/op\n")
		if len(cur) != 2 || cur[0].Name != "BenchmarkA" || *cur[0].NsPerOp != 1100 || *cur[1].NsPerOp != 2500 {
			t.Fatalf("folded rows = %+v, want A at 1100 then B at 2500", cur)
		}
		regressed, err := gateAgainst(&out, cur, base, 15, nil, timeMetrics)
		if err != nil || !regressed {
			t.Fatalf("regressed=%v err=%v, want B's fastest repeat (2500 against 2000) to fail\n%s", regressed, err, out.String())
		}
		if got := out.String(); strings.Count(got, "BenchmarkA") != 1 || !strings.Contains(got, "ok     BenchmarkA") ||
			!strings.Contains(got, "WORSE  BenchmarkB") || strings.Contains(got, "NEW") {
			t.Errorf("want one ok line for A (1100), one WORSE line for B and no NEW:\n%s", got)
		}
	})

	t.Run("empty selection is an error", func(t *testing.T) {
		var out strings.Builder
		cur := curResults(t, "BenchmarkA 100 1000 ns/op\n")
		if _, err := gateAgainst(&out, cur, base, 15, []string{"BenchmarkZ"}, timeMetrics); err == nil || !strings.Contains(err.Error(), "no benchmarks matched") {
			t.Fatalf("err = %v, want no-match error", err)
		}
	})

	t.Run("unreadable baseline", func(t *testing.T) {
		var out strings.Builder
		cur := curResults(t, "BenchmarkA 100 1000 ns/op\n")
		if _, err := gateAgainst(&out, cur, filepath.Join(t.TempDir(), "missing.json"), 15, nil, timeMetrics); err == nil {
			t.Fatal("want error for missing baseline")
		}
		bad := writeBaseline(t, "{not json")
		if _, err := gateAgainst(&out, cur, bad, 15, nil, timeMetrics); err == nil || !strings.Contains(err.Error(), "parsing") {
			t.Fatalf("err = %v, want parsing error", err)
		}
	})
}

// TestGateMem covers the deterministic gate: B/op and allocs/op are compared
// (ns/op is not), either column failing fails the gate, a zero baseline
// regresses by becoming non-zero, and sims/op, units/op, explored, bytes,
// scan-illegal and scan-simulated — exact counts — fail on one more
// simulation, unit, point, byte or scanned candidate however small a share of
// the baseline that is; other extras (bound-pruned) are not gated.
func TestGateMem(t *testing.T) {
	base := writeBaseline(t, `[
  {"name": "BenchmarkA", "iterations": 1, "ns_per_op": 1000, "bytes_per_op": 1000, "allocs_per_op": 100},
  {"name": "BenchmarkZero", "iterations": 1, "ns_per_op": 10, "bytes_per_op": 0, "allocs_per_op": 0},
  {"name": "BenchmarkNoMem", "iterations": 1, "ns_per_op": 10},
  {"name": "BenchmarkSims", "iterations": 1, "ns_per_op": 10, "bytes_per_op": 1000, "allocs_per_op": 100, "extra": {"sims/op": 61}},
  {"name": "BenchmarkUnits", "iterations": 100, "ns_per_op": 10, "bytes_per_op": 1000, "allocs_per_op": 100, "extra": {"units/op": 24576}},
  {"name": "BenchmarkSearch", "iterations": 1, "ns_per_op": 10, "bytes_per_op": 1000, "allocs_per_op": 100, "extra": {"explored": 38, "bound-pruned": 120}},
  {"name": "BenchmarkCodec", "iterations": 100, "ns_per_op": 10, "bytes_per_op": 1000, "allocs_per_op": 100, "extra": {"bytes": 43172}},
  {"name": "BenchmarkScan", "iterations": 1, "ns_per_op": 10, "bytes_per_op": 1000, "allocs_per_op": 100, "extra": {"scan-illegal": 2, "scan-simulated": 10}}
]`)
	for _, tc := range []struct {
		name, bench string
		regressed   bool
		want        string
	}{
		{"within threshold, ns/op ignored", "BenchmarkA 1 9000 ns/op 1040 B/op 105 allocs/op\n", false, "ok     BenchmarkA"},
		{"bytes regress", "BenchmarkA 1 1000 ns/op 1060 B/op 100 allocs/op\n", true, "WORSE  BenchmarkA"},
		{"allocs regress", "BenchmarkA 1 1000 ns/op 900 B/op 106 allocs/op\n", true, "106 allocs/op"},
		{"zero stays zero", "BenchmarkZero 1 10 ns/op 0 B/op 0 allocs/op\n", false, "ok     BenchmarkZero"},
		{"zero becomes non-zero", "BenchmarkZero 1 10 ns/op 16 B/op 1 allocs/op\n", true, "WORSE  BenchmarkZero"},
		{"column missing from baseline is new", "BenchmarkNoMem 1 10 ns/op 8 B/op 1 allocs/op\nBenchmarkA 1 1 ns/op 1000 B/op 100 allocs/op\n", false, "NEW    BenchmarkNoMem"},
		{"sims stay", "BenchmarkSims 1 10 ns/op 1000 B/op 100 allocs/op 61 sims/op\n", false, "61 sims/op"},
		{"fewer sims pass", "BenchmarkSims 1 10 ns/op 1000 B/op 100 allocs/op 43 sims/op\n", false, "43 sims/op (-29.5%)"},
		{"one more sim fails", "BenchmarkSims 1 10 ns/op 1000 B/op 100 allocs/op 62 sims/op\n", true, "WORSE  BenchmarkSims"},
		{"units stay", "BenchmarkUnits 100 10 ns/op 1000 B/op 100 allocs/op 24576 units/op\n", false, "24576 units/op"},
		{"one more unit fails", "BenchmarkUnits 100 10 ns/op 1000 B/op 100 allocs/op 24577 units/op\n", true, "WORSE  BenchmarkUnits"},
		{"explored stays", "BenchmarkSearch 1 10 ns/op 1000 B/op 100 allocs/op 38 explored 121 bound-pruned\n", false, "38 explored"},
		{"one more explored point fails", "BenchmarkSearch 1 10 ns/op 1000 B/op 100 allocs/op 39 explored\n", true, "WORSE  BenchmarkSearch"},
		{"plan bytes stay", "BenchmarkCodec 100 10 ns/op 1000 B/op 100 allocs/op 43172 bytes\n", false, "43172 bytes"},
		{"one more plan byte fails", "BenchmarkCodec 100 10 ns/op 1000 B/op 100 allocs/op 43173 bytes\n", true, "WORSE  BenchmarkCodec"},
		{"scan verdicts stay", "BenchmarkScan 1 10 ns/op 1000 B/op 100 allocs/op 2 scan-illegal 10 scan-simulated\n", false, "10 scan-simulated"},
		{"one more illegal candidate fails", "BenchmarkScan 1 10 ns/op 1000 B/op 100 allocs/op 3 scan-illegal 10 scan-simulated\n", true, "WORSE  BenchmarkScan"},
		{"one more simulated candidate fails", "BenchmarkScan 1 10 ns/op 1000 B/op 100 allocs/op 2 scan-illegal 11 scan-simulated\n", true, "11 scan-simulated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			regressed, err := gateAgainst(&out, curResults(t, tc.bench), base, 5, nil, memMetrics)
			if err != nil || regressed != tc.regressed {
				t.Fatalf("regressed=%v err=%v, want regressed=%v\n%s", regressed, err, tc.regressed, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out.String())
			}
		})
	}
	var out strings.Builder
	if _, err := gateAgainst(&out, curResults(t, "BenchmarkA 1 1000 ns/op\n"), base, 5, nil, memMetrics); err == nil {
		t.Error("a run without -benchmem columns gated nothing and still passed")
	}
}
