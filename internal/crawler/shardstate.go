package crawler

import (
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pushadminer/internal/httpx"
	"pushadminer/internal/serviceworker"
	"pushadminer/internal/telemetry"
)

// ShardStateVersion is bumped when the shard-state format changes
// incompatibly; LoadShardState rejects other versions.
const ShardStateVersion = 2

// ContainerCursor is the persisted scheduling position of one
// container: its identity, monitoring-window and resume times, and the
// crash/recovery tallies the pump phases consult.
type ContainerCursor struct {
	ID           int                  `json:"id"`
	SeedURL      string               `json:"seed_url"`
	ClientID     string               `json:"client_id"`
	RegisteredAt time.Time            `json:"registered_at"`
	ActiveUntil  time.Time            `json:"active_until"`
	NextResume   time.Time            `json:"next_resume"`
	Collected    int                  `json:"collected"`
	Cycles       int                  `json:"cycles"`
	Recoveries   int                  `json:"recoveries"`
	PollFails    int                  `json:"poll_fails,omitempty"`
	Dead         bool                 `json:"dead,omitempty"`
	Sources      map[string]string    `json:"sources,omitempty"`   // token → source URL
	RegTimes     map[string]time.Time `json:"reg_times,omitempty"` // token → registration time
}

// cursor captures the container's persisted position.
func (ct *container) cursor() ContainerCursor {
	return ContainerCursor{
		ID:           ct.id,
		SeedURL:      ct.seedURL,
		ClientID:     ct.clientID,
		RegisteredAt: ct.registeredAt,
		ActiveUntil:  ct.activeUntil,
		NextResume:   ct.nextResume,
		Collected:    ct.collected,
		Cycles:       ct.cycles,
		Recoveries:   ct.recoveries,
		PollFails:    ct.pollFails,
		Dead:         ct.dead,
		Sources:      ct.sourceByToken,
		RegTimes:     ct.regTimeByToken,
	}
}

// ShardContainerState is one container's complete persisted state:
// its cursor plus everything a restarted worker needs to
// resume the container *losslessly* — circuit-breaker host states (so
// a chaos 5xx burst is not re-probed at full rate after failover),
// service-worker registrations with their push subscriptions, the
// dropped-notification tally, cookies (tracking ad networks
// frequency-cap returning browsers they recognize by cookie, §8), and
// whether the container sits in the suspension heap (heap membership is
// not derivable from the cursor: a container can die or hit its cap
// after being re-queued, and a spurious or missing resume event would
// shift tick times and break parity).
type ShardContainerState struct {
	Cursor               ContainerCursor               `json:"cursor"`
	InHeap               bool                          `json:"in_heap,omitempty"`
	Breaker              []httpx.BreakerHostState      `json:"breaker,omitempty"`
	Registrations        []*serviceworker.Registration `json:"registrations,omitempty"`
	DroppedNotifications int                           `json:"dropped_notifications,omitempty"`
	Cookies              []httpx.CookieRecord          `json:"cookies,omitempty"`
	// Chain is the browser's trace chain-recorder linkage state (span
	// IDs future events parent under). Present only when tracing is on;
	// its IDs reference the shard's tracer, which the fleet transport
	// owns across restarts — so a restored worker keeps extending the
	// chains the lost one left open and the stitched fleet trace stays
	// byte-identical to a kill-free trace. Adopt drops it: the IDs are
	// meaningless against another shard's tracer.
	Chain *telemetry.ChainState `json:"chain,omitempty"`
}

// ShardState is one shard worker's durable snapshot, written by the
// fleet transport at the end of every tick that changed something.
// Restart-with-resume deserializes it back into a ShardWorker with no
// HTTP and no replay: because the fleet kills workers only at tick
// boundaries (after the save), the restored worker continues exactly
// where the lost one stopped.
type ShardState struct {
	Version int       `json:"version"`
	Shard   int       `json:"shard"`
	Device  string    `json:"device"`
	SimTime time.Time `json:"sim_time"`
	// End is the collection-window end the worker computed at seeding
	// (heap re-queue decisions depend on it).
	End time.Time `json:"end"`

	Seeds      []ShardSeed           `json:"seeds,omitempty"`
	Containers []ShardContainerState `json:"containers,omitempty"`
	// LostTokens are subscriptions lost in container crashes (their
	// still-queued messages become RecordsDroppedEst at finish).
	LostTokens  []string    `json:"lost_tokens,omitempty"`
	Degradation Degradation `json:"degradation"`
}

// State snapshots the worker for durable storage.
func (w *ShardWorker) State() (*ShardState, error) {
	inHeap := make(map[int]bool, len(w.resumes))
	for _, ct := range w.resumes {
		inHeap[ct.id] = true
	}
	st := &ShardState{
		Version:     ShardStateVersion,
		Shard:       w.id,
		Device:      w.cfg.Device.String(),
		SimTime:     w.cfg.Clock.Now(),
		End:         w.end,
		Seeds:       w.seeds,
		LostTokens:  w.lostTokens,
		Degradation: w.deg,
	}
	for _, ct := range w.live {
		st.Containers = append(st.Containers, ShardContainerState{
			Cursor:               ct.cursor(),
			InHeap:               inHeap[ct.id],
			Breaker:              ct.brk.Export(),
			Registrations:        ct.br.Registrations(),
			DroppedNotifications: ct.br.DroppedNotifications(),
			Cookies:              ct.br.ExportCookies(),
			Chain:                ct.br.ExportChain(),
		})
	}
	return st, nil
}

// RestoreShardWorker rebuilds a worker from its persisted state: fresh
// browsers and breakers are constructed (pure, no HTTP) and rehydrated
// with the saved registrations, breaker host states, cookies, and
// tallies. The restored worker is byte-equivalent to the lost one at
// the tick boundary the state was saved on. A malformed state is an
// error (see checkState), never a worker that panics later.
func RestoreShardWorker(ctx context.Context, cfg Config, st *ShardState) (*ShardWorker, error) {
	if st == nil {
		return nil, fmt.Errorf("crawler: nil shard state")
	}
	w, err := NewShardWorker(ctx, cfg, st.Shard, st.Seeds)
	if err != nil {
		return nil, err
	}
	if err := w.checkState(st, nil); err != nil {
		return nil, err
	}
	w.end = st.End
	w.deg = st.Degradation
	w.lostTokens = st.LostTokens
	for i := range st.Containers {
		ct := w.containerFromState(&st.Containers[i])
		w.live = append(w.live, ct)
		if st.Containers[i].InHeap {
			w.resumes = append(w.resumes, ct)
		}
	}
	heap.Init(&w.resumes)
	return w, nil
}

// containerFromState rebuilds one container from its persisted state.
// No HTTP happens: the browser's registrations were announced when
// first created and the push service's token state lives server-side.
func (w *ShardWorker) containerFromState(cs *ShardContainerState) *container {
	cur := &cs.Cursor
	ct := w.newContainer(cur.ID, cur.SeedURL)
	ct.registeredAt = cur.RegisteredAt
	ct.activeUntil = cur.ActiveUntil
	ct.nextResume = cur.NextResume
	ct.collected = cur.Collected
	ct.cycles = cur.Cycles
	ct.recoveries = cur.Recoveries
	ct.pollFails = cur.PollFails
	ct.dead = cur.Dead
	if cur.Sources != nil {
		ct.sourceByToken = cur.Sources
	}
	if cur.RegTimes != nil {
		ct.regTimeByToken = cur.RegTimes
	}
	ct.brk.Restore(cs.Breaker)
	ct.br.RestoreSession(cs.Registrations, cs.DroppedNotifications)
	ct.br.RestoreCookies(cs.Cookies)
	ct.br.RestoreChain(cs.Chain)
	return ct
}

// SaveShardState atomically writes a shard state file (writeFileDurable):
// the previous state rotates to path+".bak" so a torn write can always
// fall back one tick.
func SaveShardState(path string, st *ShardState) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("crawler: marshal shard state: %w", err)
	}
	if err := writeFileDurable(path, data); err != nil {
		return fmt.Errorf("crawler: shard state: %w", err)
	}
	return nil
}

// LoadShardState reads a shard state file, falling back to the rotated
// .bak when the primary is missing, truncated, corrupt, or of another
// version. fellBack reports that the backup was used. When both copies
// are unusable the primary's error is returned.
func LoadShardState(path string) (st *ShardState, fellBack bool, err error) {
	st, err = loadShardState(path)
	if err == nil {
		return st, false, nil
	}
	if bst, berr := loadShardState(path + ".bak"); berr == nil {
		return bst, true, nil
	}
	return nil, false, err
}

func loadShardState(path string) (*ShardState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st ShardState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("crawler: parse shard state %s: %w", path, err)
	}
	if st.Version != ShardStateVersion {
		return nil, fmt.Errorf("crawler: shard state %s: version %d, want %d", path, st.Version, ShardStateVersion)
	}
	return &st, nil
}

// writeFileDurable is the atomic write with backup rotation behind
// shard state: temp file in the same directory, fsync, rotate the
// existing file to .bak, rename into place. The rotation is best-effort
// — failing to keep a backup must not fail the write.
func writeFileDurable(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("temp file: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("write: %w", werr)
	}
	if _, err := os.Stat(path); err == nil {
		os.Rename(path, path+".bak")
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("commit: %w", err)
	}
	return nil
}
