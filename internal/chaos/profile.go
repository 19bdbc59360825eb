package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Presets name commonly used fault mixes. "acceptance" is the scenario
// the chaos acceptance suite pins: 5% connection resets, 10% 503
// bursts, and one 24-hour push-service outage starting 72 hours in.
var presets = map[string]Profile{
	"mild": {
		LatencyFraction:  0.05,
		ResetFraction:    0.02,
		Error5xxFraction: 0.05,
	},
	"acceptance": {
		ResetFraction:    0.05,
		Error5xxFraction: 0.10,
		RetryAfter:       time.Second,
		PushOutages:      []Window{{Start: 72 * time.Hour, Dur: 24 * time.Hour}},
	},
	"harsh": {
		LatencyFraction:        0.10,
		ResetFraction:          0.10,
		Error5xxFraction:       0.20,
		TruncateFraction:       0.05,
		ContainerCrashFraction: 0.02,
		RetryAfter:             time.Second,
		PushOutages:            []Window{{Start: 72 * time.Hour, Dur: 24 * time.Hour}},
	},
}

// Preset returns a named preset profile.
func Preset(name string) (Profile, bool) {
	p, ok := presets[strings.ToLower(name)]
	return p, ok
}

// ParseProfile parses a -chaos-profile flag value: a comma-separated
// list of preset names and key=value overrides. An empty string, "none"
// or "off" yields nil (chaos disabled).
//
// Keys: seed=N, latency=F, latmin=D, latmax=D, resets=F, errors=F,
// truncate=F, crashes=F, retryafter=D,
// outage=START:DUR (repeatable), blackhole=HOST:START:DUR (repeatable).
// Durations use Go syntax ("72h", "30m"); fractions are in [0,1].
//
// Example: "acceptance,crashes=0.01,blackhole=ads.example.test:24h:6h".
func ParseProfile(s string) (*Profile, error) {
	s = strings.TrimSpace(s)
	switch strings.ToLower(s) {
	case "", "none", "off":
		return nil, nil
	}
	var p Profile
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if preset, ok := Preset(part); ok {
			merge(&p, preset)
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: unknown preset or malformed option %q", part)
		}
		if err := apply(&p, strings.ToLower(strings.TrimSpace(k)), strings.TrimSpace(v)); err != nil {
			return nil, err
		}
	}
	return &p, nil
}

// merge overlays preset values onto p (preset wins for fields it sets).
func merge(p *Profile, preset Profile) {
	if preset.Seed != 0 {
		p.Seed = preset.Seed
	}
	if preset.LatencyFraction > 0 {
		p.LatencyFraction = preset.LatencyFraction
	}
	if preset.LatencyMin > 0 {
		p.LatencyMin = preset.LatencyMin
	}
	if preset.LatencyMax > 0 {
		p.LatencyMax = preset.LatencyMax
	}
	if preset.ResetFraction > 0 {
		p.ResetFraction = preset.ResetFraction
	}
	if preset.Error5xxFraction > 0 {
		p.Error5xxFraction = preset.Error5xxFraction
	}
	if preset.RetryAfter > 0 {
		p.RetryAfter = preset.RetryAfter
	}
	if preset.TruncateFraction > 0 {
		p.TruncateFraction = preset.TruncateFraction
	}
	if preset.ContainerCrashFraction > 0 {
		p.ContainerCrashFraction = preset.ContainerCrashFraction
	}
	p.PushOutages = append(p.PushOutages, preset.PushOutages...)
	for h, ws := range preset.Blackholes {
		if p.Blackholes == nil {
			p.Blackholes = make(map[string][]Window)
		}
		p.Blackholes[h] = append(p.Blackholes[h], ws...)
	}
}

func apply(p *Profile, key, val string) error {
	frac := func(dst *float64) error {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("chaos: %s wants a fraction in [0,1], got %q", key, val)
		}
		*dst = f
		return nil
	}
	dur := func(dst *time.Duration) error {
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("chaos: %s wants a duration, got %q", key, val)
		}
		*dst = d
		return nil
	}
	switch key {
	case "seed":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("chaos: bad seed %q", val)
		}
		p.Seed = n
		return nil
	case "latency":
		return frac(&p.LatencyFraction)
	case "latmin":
		return dur(&p.LatencyMin)
	case "latmax":
		return dur(&p.LatencyMax)
	case "resets":
		return frac(&p.ResetFraction)
	case "errors":
		return frac(&p.Error5xxFraction)
	case "truncate":
		return frac(&p.TruncateFraction)
	case "crashes":
		return frac(&p.ContainerCrashFraction)
	case "retryafter":
		return dur(&p.RetryAfter)
	case "outage":
		w, err := parseWindow(val)
		if err != nil {
			return err
		}
		p.PushOutages = append(p.PushOutages, w)
		return nil
	case "blackhole":
		host, rest, ok := strings.Cut(val, ":")
		if !ok {
			return fmt.Errorf("chaos: blackhole wants HOST:START:DUR, got %q", val)
		}
		w, err := parseWindow(rest)
		if err != nil {
			return err
		}
		if p.Blackholes == nil {
			p.Blackholes = make(map[string][]Window)
		}
		host = strings.ToLower(host)
		p.Blackholes[host] = append(p.Blackholes[host], w)
		return nil
	}
	return fmt.Errorf("chaos: unknown option %q", key)
}

func parseWindow(s string) (Window, error) {
	startStr, durStr, ok := strings.Cut(s, ":")
	if !ok {
		return Window{}, fmt.Errorf("chaos: window wants START:DUR, got %q", s)
	}
	start, err := time.ParseDuration(startStr)
	if err != nil {
		return Window{}, fmt.Errorf("chaos: bad window start %q", startStr)
	}
	d, err := time.ParseDuration(durStr)
	if err != nil {
		return Window{}, fmt.Errorf("chaos: bad window duration %q", durStr)
	}
	return Window{Start: start, Dur: d}, nil
}
