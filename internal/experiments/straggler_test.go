package experiments

import "testing"

// TestStragglerCostsMarioMore: both schedules have slack in (0, 1), the
// Mario-optimized one has less, the straggler costs both some throughput,
// and the mario row keeps less of its healthy throughput than the base row.
func TestStragglerCostsMarioMore(t *testing.T) {
	r, err := Straggler(Opts{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []StragglerRow{r.Base, r.Mario} {
		if !(row.Slack > 0 && row.Slack < 1) {
			t.Errorf("%s: slack %v outside (0, 1)", row.Label, row.Slack)
		}
		if ret := row.retention(); !(ret > 0 && ret < 1) {
			t.Errorf("%s: retention %v outside (0, 1)", row.Label, ret)
		}
	}
	if r.Mario.Slack >= r.Base.Slack {
		t.Errorf("mario slack %v not below base slack %v", r.Mario.Slack, r.Base.Slack)
	}
	if r.Mario.retention() >= r.Base.retention() {
		t.Errorf("mario retention %v not below base retention %v", r.Mario.retention(), r.Base.retention())
	}
}
