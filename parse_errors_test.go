package mario_test

import (
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
