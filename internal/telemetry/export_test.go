package telemetry

// The golden trace and its checker, for the external tests that render the
// trace through internal/viz (which imports this package).
var (
	GoldenTrace = goldenTrace
	CheckGolden = checkGolden
)
