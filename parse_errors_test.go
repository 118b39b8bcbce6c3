package mario_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mario"
)

// TestParseMemoryErrors pins the error message of every ParseMemory reject
// path, so CLI and server users get a diagnosable failure rather than a
// silent zero.
func TestParseMemoryErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "empty memory spec"},
		{"whitespace", "   ", "empty memory spec"},
		{"bare unit suffix", "B", "empty memory spec"},
		{"bare multiplier", "G", "invalid memory spec"},
		{"not a number", "abc", "invalid memory spec"},
		{"unknown unit", "4X", "invalid memory spec"},
		{"double suffix", "4GG", "invalid memory spec"},
		{"negative", "-4G", "memory must be positive"},
		{"zero", "0", "memory must be positive"},
		{"zero with unit", "0M", "memory must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := mario.ParseMemory(tc.in)
			if err == nil {
				t.Fatalf("ParseMemory(%q) = %v, want error containing %q", tc.in, v, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseMemory(%q) error = %q, want it to contain %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

// TestParseMemoryTolerantForms covers the lenient spellings the parser
// accepts on purpose (suffix "B", embedded spaces, lower case).
func TestParseMemoryTolerantForms(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"40g", 40 * (1 << 30)},
		{"40 G", 40 * (1 << 30)},
		{" 512mb ", 512 * (1 << 20)},
		{"1.5G", 1.5 * (1 << 30)},
		{"2tb", 2 * (1 << 40)},
	}
	for _, tc := range cases {
		got, err := mario.ParseMemory(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMemory(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestParseFaultsErrors pins the reject paths of the inline fault-spec
// grammar (`cmd/mario -faults`).
func TestParseFaultsErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"bare word", "bogus", "neither kind:args nor key=value"},
		{"unknown kind", "melt:dev=1", "unknown clause kind"},
		{"unknown top-level key", "foo=1", "unknown top-level key"},
		{"bad seed", "seed=abc", "seed"},
		{"bad retries", "retries=many", "retries"},
		{"bad backoff", "backoff=soon", "neither seconds nor a duration"},
		{"arg missing value", "slow:dev", "not key=value"},
		{"slow unknown key", "slow:dev=1,speed=2", "unknown slow key"},
		{"slow bad device", "slow:dev=first", "invalid syntax"},
		{"slow bad factor", "slow:dev=1,factor=fast", "invalid syntax"},
		{"slow bad window", "slow:dev=1,from=later", "neither seconds nor a duration"},
		{"link unknown key", "link:from=0,to=1,mtu=9000", "unknown link key"},
		{"link bad drop", "link:from=0,to=1,drop=often", "invalid syntax"},
		{"link bad latency", "link:from=0,to=1,latency=big", "neither seconds nor a duration"},
		{"stall unknown key", "stall:dev=1,until=5", "unknown stall key"},
		{"stall bad at", "stall:dev=1,at=noon", "neither seconds nor a duration"},
		{"stall wall key", "stall:dev=1,at=0.5,dur=0.1,wall=100ms", "unknown stall key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := mario.ParseFaults(tc.in)
			if err == nil {
				t.Fatalf("ParseFaults(%q) = %+v, want error containing %q", tc.in, p, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseFaults(%q) error = %q, want it to contain %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

// TestParseFaultsAccepts covers the grammar's happy paths: wildcards,
// duration spellings, multiple clauses, and the file-loading branch.
func TestParseFaultsAccepts(t *testing.T) {
	p, err := mario.ParseFaults("slow:dev=*,factor=1.5; link:from=0,to=1,latency=250ms,drop=0.05; stall:dev=2,at=0.5,dur=0.2; seed=42; retries=5; backoff=1ms; name=scenario")
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	if len(p.Slowdowns) != 1 || p.Slowdowns[0].Device != -1 || p.Slowdowns[0].Factor != 1.5 {
		t.Errorf("slowdowns = %+v", p.Slowdowns)
	}
	if len(p.Links) != 1 || p.Links[0].ExtraLatency != 0.25 || p.Links[0].DropProb != 0.05 {
		t.Errorf("links = %+v", p.Links)
	}
	if len(p.Stalls) != 1 || p.Stalls[0].At != 0.5 {
		t.Errorf("stalls = %+v", p.Stalls)
	}
	if p.Seed != 42 || p.MaxRetries != 5 || p.RetryBackoff != 0.001 || p.Name != "scenario" {
		t.Errorf("top-level fields = %+v", p)
	}

	// The same argument names a JSON file → the loading branch.
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(path, []byte(`{"name":"from-file","seed":7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fp, err := mario.ParseFaults(path)
	if err != nil {
		t.Fatalf("ParseFaults(file): %v", err)
	}
	if fp.Name != "from-file" || fp.Seed != 7 {
		t.Errorf("loaded plan = %+v", fp)
	}
	if err := os.WriteFile(path, []byte(`{not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mario.ParseFaults(path); err == nil || !strings.Contains(err.Error(), "parsing") {
		t.Errorf("ParseFaults(bad file) error = %v, want a parsing error", err)
	}
}

// TestParseFaultsValidateDevices pins the cmd/mario sequence: a plan whose
// clauses name devices outside the cluster parses fine (the grammar does not
// know the device count) but is rejected by Validate before any run starts,
// with the offending clause and the valid range in the message.
func TestParseFaultsValidateDevices(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"slow device", "slow:dev=7,factor=2", "slowdown 0: device 7 out of range [0,4)"},
		{"link endpoint", "link:from=0,to=9,drop=0.1", "link fault 0: endpoint 0->9 out of range [0,4)"},
		{"stall device", "stall:dev=4,at=0,dur=1", "stall 0: device 4 out of range [0,4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := mario.ParseFaults(tc.in)
			if err != nil {
				t.Fatalf("ParseFaults(%q): %v", tc.in, err)
			}
			err = p.Validate(4)
			if err == nil {
				t.Fatalf("Validate(4) accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate error = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
	// Wildcards (-1) address every device and pass validation at any count.
	p, err := mario.ParseFaults("slow:dev=*,factor=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(2); err != nil {
		t.Errorf("wildcard slowdown rejected: %v", err)
	}
}
