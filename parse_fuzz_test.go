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

// FuzzParseFaults: ParseFaults never panics; every number of a plan it
// accepts is finite; and a plan that also passes Validate holds the signs its
// types promise — positive slowdown factors, drop probabilities in [0,1),
// bandwidth factors in [0,1], no negative latency, stall time, retry budget
// or backoff.
func FuzzParseFaults(f *testing.F) {
	for _, s := range []string{
		"slow:dev=*,factor=1.5; link:from=0,to=1,latency=250ms,drop=0.05; stall:dev=2,at=0.5,dur=0.2; seed=42; retries=5; backoff=1ms; name=scenario",
		"slow:dev=*,factor=2", "link:from=*,to=1,ch=grad,bw=0.5,from-t=0,to-t=1",
		"bogus", "melt:dev=1", "foo=1", "seed=abc", "retries=many", "backoff=soon", "slow:dev",
		"slow:dev=1,speed=2", "slow:dev=first", "slow:dev=1,factor=fast", "slow:dev=1,from=later",
		"link:from=0,to=1,mtu=9000", "link:from=0,to=1,drop=often", "link:from=0,to=1,latency=big",
		"stall:dev=1,until=5", "stall:dev=1,at=noon",
		"slow:dev=0,factor=NaN", "stall:dev=0,at=inf,dur=1",
		// The retired wall-clock hold: every spelling is an unknown stall key.
		"stall:dev=1,at=0.5,dur=0.1,wall=100ms", "stall:dev=1,at=0.5,dur=0.1,wall=ages", "stall:dev=0,at=0,dur=1,wall=-1s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := mario.ParseFaults(s)
		if err != nil {
			return
		}
		var nums []float64
		nums = append(nums, p.RetryBackoff)
		for _, sl := range p.Slowdowns {
			nums = append(nums, sl.Factor, sl.Start, sl.End)
		}
		for _, lf := range p.Links {
			nums = append(nums, lf.ExtraLatency, lf.BandwidthFactor, lf.DropProb, lf.Start, lf.End)
		}
		for _, st := range p.Stalls {
			nums = append(nums, st.At, st.Duration)
		}
		for _, v := range nums {
			if !finite(v) {
				t.Fatalf("ParseFaults(%q) accepted a non-finite number: %+v", s, p)
			}
		}
		if p.Validate(8) != nil {
			return
		}
		bad := p.MaxRetries < 0 || p.RetryBackoff < 0
		for _, sl := range p.Slowdowns {
			bad = bad || !(sl.Factor > 0)
		}
		for _, lf := range p.Links {
			bad = bad || lf.ExtraLatency < 0 || lf.BandwidthFactor < 0 || lf.BandwidthFactor > 1 || lf.DropProb < 0 || lf.DropProb >= 1
		}
		for _, st := range p.Stalls {
			bad = bad || st.At < 0 || st.Duration < 0
		}
		if bad {
			t.Fatalf("Validate accepted a plan with a value out of its range: %+v", p)
		}
	})
}
