package main

import (
	"reflect"
	"testing"
)

func TestParseArgs(t *testing.T) {
	for _, c := range []struct {
		scale  string
		days   int
		tables string
		format string
		// wantScale and wantTables are checked only when err is empty.
		wantScale  float64
		wantTables []string
		err        string
	}{
		{scale: "0.05", days: 14, tables: "all", format: "text", wantScale: 0.05, wantTables: []string{"all"}},
		{scale: "paper", days: 1, tables: "3", format: "json", wantScale: 1, wantTables: []string{"3"}},
		{scale: "1", days: 7, tables: " F4 ,eval,3", format: "text", wantScale: 1, wantTables: []string{"f4", "eval", "3"}},
		{scale: "0.002", days: 7, tables: "experiments,scams,detector,cost", format: "text", wantScale: 0.002, wantTables: []string{"experiments", "scams", "detector", "cost"}},
		{scale: "0", days: 14, tables: "all", format: "text", err: `bad -scale "0": want a fraction in (0, 1] or "paper"`},
		{scale: "1.5", days: 14, tables: "all", format: "text", err: `bad -scale "1.5": want a fraction in (0, 1] or "paper"`},
		{scale: "NaN", days: 14, tables: "all", format: "text", err: `bad -scale "NaN": want a fraction in (0, 1] or "paper"`},
		{scale: "half", days: 14, tables: "all", format: "text", err: `bad -scale "half": want a fraction in (0, 1] or "paper"`},
		{scale: "0.05", days: 0, tables: "all", format: "text", err: "bad -days 0: want at least 1"},
		{scale: "0.05", days: -1, tables: "all", format: "text", err: "bad -days -1: want at least 1"},
		{scale: "0.05", days: 14, tables: "7", format: "text", err: `bad -table key "7": want a comma-separated list of 1,2,3,4,5,6,f4,f5,f6,cost,eval,detector,scams,experiments,all`},
		{scale: "0.05", days: 14, tables: "3,", format: "text", err: `bad -table key "": want a comma-separated list of 1,2,3,4,5,6,f4,f5,f6,cost,eval,detector,scams,experiments,all`},
		{scale: "0.05", days: 14, tables: "3", format: "yaml", err: `bad -format "yaml": want text or json`},
		{scale: "0.05", days: 14, tables: "3", format: "JSON", err: `bad -format "JSON": want text or json`},
	} {
		scale, tables, err := parseArgs(c.scale, c.days, c.tables, c.format)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("parseArgs(%q, %d, %q, %q) error %v, want %q", c.scale, c.days, c.tables, c.format, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseArgs(%q, %d, %q, %q): %v", c.scale, c.days, c.tables, c.format, err)
			continue
		}
		want := map[string]bool{}
		for _, k := range c.wantTables {
			want[k] = true
		}
		if scale != c.wantScale || !reflect.DeepEqual(tables, want) {
			t.Errorf("parseArgs(%q, %d, %q, %q) = %v, %v; want %v, %v", c.scale, c.days, c.tables, c.format, scale, tables, c.wantScale, want)
		}
	}
}
