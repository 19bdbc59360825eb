package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"pushadminer/internal/blocklist"
	"pushadminer/internal/crawler"
)

// Export is the on-disk interchange format between the crawl stage
// (cmd/wpncrawl) and the analysis stage (cmd/wpnanalyze): the collected
// WPN records plus the blocklist verdicts gathered at crawl time, so the
// analysis can run without the live ecosystem.
type Export struct {
	GeneratedAt time.Time            `json:"generated_at"`
	Seed        int64                `json:"seed"`
	Scale       float64              `json:"scale"`
	Records     []*crawler.WPNRecord `json:"records"`
	FlaggedURLs map[string][]string  `json:"flagged_urls"` // landing URL → services that flagged it
}

// WriteExport serializes an export to w.
func WriteExport(w io.Writer, e *Export) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(e); err != nil {
		return fmt.Errorf("core: write export: %w", err)
	}
	return nil
}

// ReadExport parses an export from r. The bytes are untrusted (any
// file handed to wpnanalyze -in), so a null record, which the pipeline
// would dereference, is an error that names its index.
func ReadExport(r io.Reader) (*Export, error) {
	var e Export
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("core: read export: %w", err)
	}
	for i, rec := range e.Records {
		if rec == nil {
			return nil, fmt.Errorf("core: read export: record %d is null", i)
		}
	}
	return &e, nil
}

// SaveExport writes an export to a file.
func SaveExport(path string, e *Export) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteExport(f, e)
}

// LoadExport reads an export from a file.
func LoadExport(path string) (*Export, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadExport(f)
}

// ExportFromStudy packages a finished study's records and blocklist
// verdicts for offline analysis.
func ExportFromStudy(s *Study) *Export {
	return &Export{
		GeneratedAt: s.Eco.Clock.Now(),
		Seed:        s.Cfg.Eco.Seed,
		Scale:       s.Cfg.Eco.Scale,
		Records:     s.Records,
		FlaggedURLs: s.Analysis.FlaggedURLs,
	}
}

// StaticLookup is a BlocklistLookup backed by a fixed verdict map (the
// flagged URLs captured in an Export).
type StaticLookup struct {
	ServiceName string
	Flagged     map[string]bool
}

// Name implements BlocklistLookup.
func (l StaticLookup) Name() string { return l.ServiceName }

// Lookup implements BlocklistLookup.
func (l StaticLookup) Lookup(urls []string, _ time.Time) ([]blocklist.Verdict, error) {
	out := make([]blocklist.Verdict, len(urls))
	for i, u := range urls {
		out[i] = blocklist.Verdict{URL: u, Malicious: l.Flagged[u]}
		if out[i].Malicious {
			out[i].Engines = 1
		}
	}
	return out, nil
}

// LookupsFromExport converts an export's flagged-URL map into per-service
// static lookups.
func LookupsFromExport(e *Export) []BlocklistLookup {
	byService := map[string]map[string]bool{}
	for u, svcs := range e.FlaggedURLs {
		for _, s := range svcs {
			if byService[s] == nil {
				byService[s] = map[string]bool{}
			}
			byService[s][u] = true
		}
	}
	var out []BlocklistLookup
	for name, flagged := range byService {
		out = append(out, StaticLookup{ServiceName: name, Flagged: flagged})
	}
	if len(out) == 0 {
		out = append(out, StaticLookup{ServiceName: "none", Flagged: map[string]bool{}})
	}
	return out
}
