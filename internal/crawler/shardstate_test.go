package crawler_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pushadminer/internal/crawler"
	"pushadminer/internal/fleet"
	"pushadminer/internal/serviceworker"
	"pushadminer/internal/webeco"
)

// savedState runs a two-day crawl with durable shard state and returns
// the final state file: a real ShardState with registrations, breaker
// states and cookies.
func savedState(t testing.TB, eco *webeco.Ecosystem) []byte {
	t.Helper()
	dir := t.TempDir()
	_, _, err := fleet.Run(context.Background(), fleet.Config{
		Crawl: crawlConfig(eco, func(c *crawler.Config) { c.CollectionWindow = 2 * 24 * time.Hour }),
		Dir:   dir,
	}, eco.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "shard-0.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decodeState(t testing.TB, data []byte) *crawler.ShardState {
	t.Helper()
	var st crawler.ShardState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// workerState renders a worker's State() as the bytes SaveShardState
// would write.
func workerState(t testing.TB, w *crawler.ShardWorker) []byte {
	t.Helper()
	st, err := w.State()
	if err != nil {
		t.Fatal(err)
	}
	return marshal(t, st)
}

func testState(simTime time.Time) *crawler.ShardState {
	return &crawler.ShardState{
		Version: crawler.ShardStateVersion,
		Device:  "desktop",
		SimTime: simTime,
		Seeds:   []crawler.ShardSeed{{Index: 0, URL: "http://s.test/"}},
		Containers: []crawler.ShardContainerState{{
			Cursor: crawler.ContainerCursor{ID: 1, SeedURL: "http://s.test/", Collected: 1},
			InHeap: true,
		}},
	}
}

// TestCheckpointRoundTrip exercises the crawl's durable checkpoint, the
// shard state file: write, atomic replace, load, version validation.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.json")
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := crawler.SaveShardState(path, testState(t0)); err != nil {
		t.Fatal(err)
	}
	// Overwrite must be atomic-replace, not append.
	if err := crawler.SaveShardState(path, testState(t0.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	got, fellBack, err := crawler.LoadShardState(path)
	if err != nil {
		t.Fatal(err)
	}
	if fellBack || !got.SimTime.Equal(t0.Add(time.Hour)) || len(got.Containers) != 1 || got.Containers[0].Cursor.Collected != 1 {
		t.Fatalf("round-tripped state %+v (fellBack=%v)", got, fellBack)
	}

	// A wrong version is an error, not a state to restore from.
	wrong := filepath.Join(t.TempDir(), "shard-0.json")
	st := testState(t0)
	st.Version = crawler.ShardStateVersion + 1
	if err := crawler.SaveShardState(wrong, st); err != nil {
		t.Fatal(err)
	}
	if _, _, err := crawler.LoadShardState(wrong); err == nil {
		t.Fatal("wrong-version shard state accepted")
	}
}

// TestCheckpointCorruptionFailover simulates the worst outcome a
// mid-write crash can leave: a truncated primary state file. After two
// saves the rotated .bak holds the first, and loading must fall back to
// it and say so.
func TestCheckpointCorruptionFailover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.json")
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, at := range []time.Time{t0, t0.Add(time.Hour)} {
		if err := crawler.SaveShardState(path, testState(at)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, fellBack, err := crawler.LoadShardState(path)
	if err != nil {
		t.Fatalf("fallback load failed with a good .bak present: %v", err)
	}
	if !fellBack {
		t.Error("loaded a truncated primary without reporting the fallback")
	}
	if !got.SimTime.Equal(t0) {
		t.Errorf("fallback state is from %v, want the first save's %v", got.SimTime, t0)
	}
}

// TestCheckpointBothCopiesCorrupt: when primary AND backup are
// unreadable, loading must fail loudly rather than hand back a silent
// fresh start.
func TestCheckpointBothCopiesCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.json")
	for _, p := range []string{path, path + ".bak"} {
		if err := os.WriteFile(p, []byte(`{"version":1,"trunc`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st, _, err := crawler.LoadShardState(path); err == nil {
		t.Fatalf("two corrupt state files loaded as %+v", st)
	}
}

// TestRestoreRejectsMalformedState: a state that decodes but could not
// be pumped — a null registration panics the first Poll on a pool
// goroutine — must be refused by RestoreShardWorker and Adopt alike.
func TestRestoreRejectsMalformedState(t *testing.T) {
	eco := newEco(t, 0.002)
	real := savedState(t, eco)
	cfg := crawlConfig(eco, nil)
	ctx := context.Background()
	if st := decodeState(t, real); len(st.Containers) == 0 || len(st.Containers[0].Registrations) == 0 {
		t.Fatal("saved state has no registered container; test is vacuous")
	}
	if _, err := crawler.RestoreShardWorker(ctx, cfg, decodeState(t, real)); err != nil {
		t.Fatalf("real state refused: %v", err)
	}

	for _, tc := range []struct {
		name    string
		corrupt func(st *crawler.ShardState)
	}{
		{"null registration", func(st *crawler.ShardState) {
			st.Containers[0].Registrations = []*serviceworker.Registration{nil}
		}},
		{"no script", func(st *crawler.ShardState) { st.Containers[0].Registrations[0].Script = nil }},
		{"empty token", func(st *crawler.ShardState) { st.Containers[0].Registrations[0].Sub.Token = "" }},
		{"container without seed", func(st *crawler.ShardState) { st.Containers[0].Cursor.ID = len(st.Seeds) + 1000 }},
		{"container twice", func(st *crawler.ShardState) { st.Containers = append(st.Containers, st.Containers[0]) }},
		{"seed twice", func(st *crawler.ShardState) { st.Seeds = append(st.Seeds, st.Seeds[0]) }},
		{"other device", func(st *crawler.ShardState) { st.Device = "mobile" }},
	} {
		st := decodeState(t, real)
		tc.corrupt(st)
		if _, err := crawler.RestoreShardWorker(ctx, cfg, st); err == nil {
			t.Errorf("%s: RestoreShardWorker accepted the state", tc.name)
		}
		w, err := crawler.NewShardWorker(ctx, cfg, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Adopt(st); err == nil {
			t.Errorf("%s: Adopt accepted the state", tc.name)
		}
	}

	// Adopting containers whose seeds the adopter already holds would
	// run them twice.
	st := decodeState(t, real)
	w, err := crawler.NewShardWorker(ctx, cfg, 1, st.Seeds[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Adopt(st); err == nil {
		t.Error("Adopt accepted a state overlapping the adopter's own seeds")
	}
}

// FuzzLoadShardState: whatever bytes sit in a state file, load →
// restore → State() either errors or yields a state that restores
// again to the same bytes — it never panics. Seeded with a real saved
// state and a null-registration state, which would panic the first Poll
// if it were restored.
func FuzzLoadShardState(f *testing.F) {
	eco := newEco(f, 0.002)
	real := savedState(f, eco)
	cfg := crawlConfig(eco, nil)
	broken := decodeState(f, real)
	broken.Containers[0].Registrations = []*serviceworker.Registration{nil}
	nullReg, err := json.Marshal(broken)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		real, nullReg, []byte(`null`), []byte(`{}`),
		fmt.Appendf(nil, `{"version":%d,"device":"desktop"}`, crawler.ShardStateVersion),
		fmt.Appendf(nil, `{"version":%d,"device":"desktop","seeds":[{"index":0}],"containers":[{"cursor":{"id":1}}]}`, crawler.ShardStateVersion),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "shard-0.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, err := crawler.LoadShardState(path)
		if err != nil {
			return
		}
		w, err := crawler.RestoreShardWorker(context.Background(), cfg, st)
		if err != nil {
			return
		}
		first := workerState(t, w)
		w2, err := crawler.RestoreShardWorker(context.Background(), cfg, decodeState(t, first))
		if err != nil {
			t.Fatalf("a state written by State() does not restore: %v", err)
		}
		if second := workerState(t, w2); !bytes.Equal(first, second) {
			t.Fatalf("restored state does not round-trip: %s", firstDiff(first, second))
		}
	})
}
