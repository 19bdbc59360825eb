package main

import (
	"math"
	"testing"
)

func TestCheckArgs(t *testing.T) {
	for _, c := range []struct {
		scale float64
		days  int
		ok    bool
	}{
		{0.05, 14, true},
		{1, 1, true},
		{0.002, 7, true},
		{0, 14, false},
		{-0.5, 14, false},
		{1.5, 14, false},
		{math.NaN(), 14, false},
		{math.Inf(1), 14, false},
		{0.05, 0, false},
		{0.05, -3, false},
		{0, 0, false},
	} {
		if err := checkArgs(c.scale, c.days); (err == nil) != c.ok {
			t.Errorf("checkArgs(%v, %d) = %v, want ok=%v", c.scale, c.days, err, c.ok)
		}
	}
}
