package telemetry_test

import (
	"bytes"
	"io"
	"testing"

	"mario/internal/telemetry"
	"mario/internal/viz"
)

// TestGoldenSpanChrome pins both Chrome traces of the golden search trace,
// canonical and measured, byte for byte. internal/viz renders them, so the
// test lives outside the package; regenerate with
// go test ./internal/telemetry -run TestGolden -update.
func TestGoldenSpanChrome(t *testing.T) {
	snap := telemetry.GoldenTrace()
	for _, c := range []struct {
		golden string
		render func(io.Writer, *telemetry.Trace) error
	}{
		{"trace_chrome", viz.SearchChromeTrace},
		{"trace_chrome_measured", viz.SearchChromeTraceMeasured},
	} {
		var b bytes.Buffer
		if err := c.render(&b, snap); err != nil {
			t.Fatal(err)
		}
		telemetry.CheckGolden(t, c.golden, b.Bytes())
	}
}
