package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadMedoidIndex feeds arbitrary bytes to LoadMedoidIndex. Each
// input must be rejected at load or classify every record of a small
// feature set without panicking, and a loaded index must round-trip
// byte-identically through SaveMedoidIndex.
func FuzzLoadMedoidIndex(f *testing.F) {
	fs := parityFS(f, 1, 40)
	real := filepath.Join(f.TempDir(), "real.json")
	if err := SaveMedoidIndex(real, ClusterWPNs(fs, ClusterOptions{Blocked: true, BuildMedoids: true}).Medoids); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(real)
	if err != nil {
		f.Fatal(err)
	}
	bands65 := bytes.Replace(seed, []byte(`"bands": 8,`), []byte(`"bands": 65,`), 1)
	if bytes.Equal(bands65, seed) || !bytes.Contains(seed, []byte(`"record"`)) {
		f.Fatalf("seed index lacks the bands field or medoids:\n%s", seed)
	}
	f.Add(seed)
	f.Add(bands65)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		x, err := LoadMedoidIndex(in)
		if err != nil {
			return
		}
		for i := range fs.Records {
			x.Classify(fs, i)
		}
		saved := func(x *MedoidIndex, name string) []byte {
			path := filepath.Join(dir, name)
			if err := SaveMedoidIndex(path, x); err != nil {
				t.Fatal(err)
			}
			out, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		first := saved(x, "first.json")
		y, err := LoadMedoidIndex(filepath.Join(dir, "first.json"))
		if err != nil {
			t.Fatalf("saved index does not load: %v", err)
		}
		if second := saved(y, "second.json"); !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the index:\n%s\n%s", first, second)
		}
	})
}
