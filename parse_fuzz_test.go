package mario_test

import (
	"math"
	"testing"

	"mario"
)

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// FuzzParseMemory: ParseMemory never panics, and a spec it accepts is a
// finite, positive byte count.
func FuzzParseMemory(f *testing.F) {
	for _, s := range []string{
		"40G", "40GB", "512M", "1T", "2048K", "123", "40g", "40 G", " 512mb ", "1.5G", "2tb",
		"", "   ", "B", "G", "abc", "4X", "4GG", "-4G", "0", "0M", "NaN", "inf", "1e308T",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := mario.ParseMemory(s)
		if err == nil && !(v > 0 && finite(v)) {
			t.Fatalf("ParseMemory(%q) accepted %v", s, v)
		}
	})
}
