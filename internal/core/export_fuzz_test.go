package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pushadminer/internal/webeco"
)

// TestReadExportRejectsNullRecord: a null record would reach
// FilterValidLanding as a nil pointer, so ReadExport refuses it and
// names its index.
func TestReadExportRejectsNullRecord(t *testing.T) {
	for _, c := range []struct{ in, index string }{
		{`{"records":[null]}`, "record 0 "},
		{`{"records":[{"id":1},null,{"id":3}]}`, "record 1 "},
	} {
		e, err := ReadExport(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted with %d records", c.in, len(e.Records))
			continue
		}
		if !strings.Contains(err.Error(), c.index) {
			t.Errorf("%s: error %q does not name %q", c.in, err, strings.TrimSpace(c.index))
		}
	}
	if _, err := ReadExport(strings.NewReader(`{"records":[]}`)); err != nil {
		t.Errorf("an export with no records is valid: %v", err)
	}
}

// FuzzReadExport: whatever bytes an export file holds, ReadExport
// either errors or returns an export with no nil record whose
// re-encoding reads back to the same export (its own encoding is a
// fixed point). Seeded with a tiny study's export, unindented (the
// fuzzer minimizes every new input it finds, and that stalls on large
// ones), and the null-record shapes.
func FuzzReadExport(f *testing.F) {
	s, err := RunStudy(StudyConfig{
		Eco:              webeco.Config{Seed: 11, Scale: 0.001},
		CollectionWindow: 6 * time.Hour,
		SkipMobile:       true,
	})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	if len(s.Records) == 0 {
		f.Fatal("the seed study collected no records")
	}
	study, err := json.Marshal(ExportFromStudy(s))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(study), `{"records":[null]}`, `{"records":[{}]}`, `{}`, `null`,
		`{"generated_at":"2019-09-01T00:00:00+02:00","flagged_urls":{"https://x.test/":null}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ReadExport(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range e.Records {
			if r == nil {
				t.Fatalf("accepted export holds a nil record at %d", i)
			}
		}
		var first, second bytes.Buffer
		if err := WriteExport(&first, e); err != nil {
			t.Fatalf("an accepted export does not encode: %v", err)
		}
		back, err := ReadExport(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a re-encoded export does not decode: %v", err)
		}
		if err := WriteExport(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoded export decodes differently:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
