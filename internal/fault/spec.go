package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// Parse builds a Plan from the compact clause syntax of `cmd/mario -faults`:
// semicolon-separated clauses, each `kind:key=value,key=value,…`.
//
//	slow:dev=1,factor=1.5[,from=0][,to=2]
//	link:from=0,to=1[,ch=act|grad][,latency=1ms][,bw=0.5][,drop=0.05][,from-t=0][,to-t=1]
//	stall:dev=2,at=0.5,dur=0.2
//	seed=42    retries=5    backoff=1ms    name=my-scenario
//
// `dev=*` (or `from=*`/`to=*` on links) is the wildcard. Time values accept a
// float (seconds) or a Go duration string ("250ms"); `bw` is the bandwidth
// factor in (0,1]; `drop` a probability in [0,1).
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, args, hasArgs := strings.Cut(clause, ":")
		if !hasArgs {
			// Top-level key=value clause (seed=…, retries=…, backoff=…).
			key, val, ok := strings.Cut(clause, "=")
			if !ok {
				return nil, fmt.Errorf("fault: clause %q is neither kind:args nor key=value", clause)
			}
			if err := p.setTop(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
				return nil, err
			}
			continue
		}
		kv, err := parseArgs(args)
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
		switch strings.TrimSpace(kind) {
		case "slow":
			if err := p.addSlow(kv); err != nil {
				return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
		case "link":
			if err := p.addLink(kv); err != nil {
				return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
		case "stall":
			if err := p.addStall(kv); err != nil {
				return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
			}
		default:
			return nil, fmt.Errorf("fault: unknown clause kind %q (want slow, link or stall)", kind)
		}
	}
	return p, nil
}

// Load reads a Plan from a JSON file (the json.Marshal form of Plan). The file
// holds one JSON value and nothing after it, and an unknown key is an error: a
// misspelt key would otherwise load as a plan that injects nothing.
func Load(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	defer f.Close()
	p := &Plan{}
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("fault: parsing %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value after the plan")
		}
		return nil, fmt.Errorf("fault: parsing %s: %w", path, err)
	}
	return p, nil
}

// ParseOrLoad resolves the `-faults` CLI argument: if it names an existing
// file the JSON plan is loaded, otherwise it is parsed as an inline spec.
func ParseOrLoad(arg string) (*Plan, error) {
	if st, err := os.Stat(arg); err == nil && !st.IsDir() {
		return Load(arg)
	}
	return Parse(arg)
}

func (p *Plan) setTop(key, val string) error {
	switch key {
	case "seed":
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("fault: seed: %w", err)
		}
		p.Seed = v
	case "retries":
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("fault: retries: %w", err)
		}
		p.MaxRetries = v
	case "backoff":
		v, err := parseSeconds(val)
		if err != nil {
			return fmt.Errorf("fault: backoff: %w", err)
		}
		p.RetryBackoff = v
	case "name":
		p.Name = val
	default:
		return fmt.Errorf("fault: unknown top-level key %q", key)
	}
	return nil
}

func (p *Plan) addSlow(kv map[string]string) error {
	sl := Slowdown{Device: -1, Factor: 1}
	for k, v := range kv {
		var err error
		switch k {
		case "dev":
			sl.Device, err = parseDev(v)
		case "factor":
			sl.Factor, err = parseFloat(v)
		case "from":
			sl.Start, err = parseSeconds(v)
		case "to":
			sl.End, err = parseSeconds(v)
		default:
			err = fmt.Errorf("unknown slow key %q", k)
		}
		if err != nil {
			return err
		}
	}
	p.Slowdowns = append(p.Slowdowns, sl)
	return nil
}

func (p *Plan) addLink(kv map[string]string) error {
	lf := LinkFault{From: -1, To: -1}
	for k, v := range kv {
		var err error
		switch k {
		case "from":
			lf.From, err = parseDev(v)
		case "to":
			lf.To, err = parseDev(v)
		case "ch":
			lf.Channel = v
		case "latency":
			lf.ExtraLatency, err = parseSeconds(v)
		case "bw":
			lf.BandwidthFactor, err = parseFloat(v)
		case "drop":
			lf.DropProb, err = parseFloat(v)
		case "from-t":
			lf.Start, err = parseSeconds(v)
		case "to-t":
			lf.End, err = parseSeconds(v)
		default:
			err = fmt.Errorf("unknown link key %q", k)
		}
		if err != nil {
			return err
		}
	}
	p.Links = append(p.Links, lf)
	return nil
}

func (p *Plan) addStall(kv map[string]string) error {
	st := Stall{}
	for k, v := range kv {
		var err error
		switch k {
		case "dev":
			st.Device, err = parseDev(v)
		case "at":
			st.At, err = parseSeconds(v)
		case "dur":
			st.Duration, err = parseSeconds(v)
		default:
			err = fmt.Errorf("unknown stall key %q", k)
		}
		if err != nil {
			return err
		}
	}
	p.Stalls = append(p.Stalls, st)
	return nil
}

func parseArgs(args string) (map[string]string, error) {
	kv := make(map[string]string)
	for _, pair := range strings.Split(args, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("argument %q is not key=value", pair)
		}
		kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return kv, nil
}

// parseDev parses a device id, with "*" (or "all") as the -1 wildcard.
func parseDev(v string) (int, error) {
	if v == "*" || v == "all" {
		return -1, nil
	}
	return strconv.Atoi(v)
}

// parseFloat is strconv.ParseFloat refusing NaN and ±Inf, which no fault
// parameter can mean.
func parseFloat(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%q is not a finite number", v)
	}
	return f, err
}

// parseSeconds accepts a finite float (seconds) or a Go duration string.
func parseSeconds(v string) (float64, error) {
	if f, err := parseFloat(v); err == nil {
		return f, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("%q is neither seconds nor a duration", v)
	}
	return d.Seconds(), nil
}

// DefaultEnsemble returns the canonical three-scenario fault ensemble used by
// the robustness evaluation and `cmd/experiments -run faults`: a persistent
// mid-pipeline straggler, a flaky activation fabric (latency + bandwidth
// degradation + 2% drop), and an early whole-device stall. Deterministic
// under the given seed.
func DefaultEnsemble(devices int, seed uint64) []Plan {
	straggler := devices / 2
	return []Plan{
		{
			Name: "straggler",
			Seed: seed,
			Slowdowns: []Slowdown{
				{Device: straggler, Factor: 1.35},
			},
		},
		{
			Name: "flaky-links",
			Seed: seed,
			Links: []LinkFault{
				{From: -1, To: -1, Channel: ChannelAct, ExtraLatency: 200e-6, BandwidthFactor: 0.7, DropProb: 0.02},
			},
		},
		{
			Name: "stall",
			Seed: seed,
			Stalls: []Stall{
				{Device: 0, At: 0.01, Duration: 0.02},
			},
		},
	}
}
