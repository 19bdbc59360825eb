package webeco

import (
	"container/heap"
	"encoding/json"
	"strings"
	"sync"
	"time"

	"pushadminer/internal/fcm"
)

// permanentSendError reports whether a send failure cannot succeed on
// retry: the push service answered 4xx (unknown or revoked token).
func permanentSendError(err error) bool {
	s := err.Error()
	return strings.Contains(s, "status 404") || strings.Contains(s, "status 400")
}

// pushJob is one scheduled push delivery.
type pushJob struct {
	at       time.Time
	endpoint string
	payload  json.RawMessage
	seq      int
	attempts int
}

type jobHeap []*pushJob

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x interface{}) { *h = append(*h, x.(*pushJob)) }
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// scheduler holds future push deliveries and flushes the due ones to the
// push service over HTTP, playing the role of all the ad-network sending
// infrastructure. Failed sends are requeued with a delay (real senders
// spool and retry through push-service outages) up to a bounded number
// of attempts, after which the message is dropped and counted.
type scheduler struct {
	mu      sync.Mutex
	jobs    jobHeap
	seq     int
	retried int
	dropped int

	retryDelay  time.Duration
	maxAttempts int
	// workers bounds how many endpoints Flush delivers to concurrently;
	// <= 1 sends everything serially.
	workers int
}

func newScheduler(workers int) *scheduler {
	return &scheduler{retryDelay: time.Hour, maxAttempts: 48, workers: workers}
}

// Schedule enqueues a delivery.
func (s *scheduler) Schedule(at time.Time, endpoint string, payload json.RawMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	heap.Push(&s.jobs, &pushJob{at: at, endpoint: endpoint, payload: payload, seq: s.seq})
}

// Pending reports queued (not yet delivered) jobs.
func (s *scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// NextAt returns the earliest pending delivery time, if any.
func (s *scheduler) NextAt() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) == 0 {
		return time.Time{}, false
	}
	return s.jobs[0].at, true
}

// Retried reports how many failed sends were requeued for a later try.
func (s *scheduler) Retried() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retried
}

// Dropped reports messages abandoned after exhausting send attempts.
func (s *scheduler) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// endpointGroup is one push endpoint's slice of a flush: its due jobs
// in (at, seq) order and, after sending, the per-job results. Each
// group is owned by exactly one goroutine while sends are in flight.
type endpointGroup struct {
	jobs []*pushJob
	errs []error
}

// Flush delivers every job due at or before now using the given push
// client. A failed send (push-service outage, expired registration) is
// requeued retryDelay later until maxAttempts is reached, then dropped
// and counted; the flush itself never stops on errors.
//
// Deliveries fan out across endpoints on up to s.workers goroutines:
// one endpoint's jobs always go out serially in (at, seq) order — the
// push service queues per token, so per-endpoint send order is
// observable in the drained message order — while the interleaving of
// sends to *different* tokens is not observable anywhere (per-token
// queues, identity-minted tokens, per-path fault counters). Outcomes
// are folded back into scheduler state in the jobs' deterministic pop
// order, so counters and retry requeues are byte-identical at any
// worker count.
func (s *scheduler) Flush(now time.Time, client *fcm.Client) (delivered, failed int) {
	// Collect every due job in (at, seq) order. Retries requeue at
	// now+retryDelay, so nothing collected here can become due again
	// within this same flush.
	s.mu.Lock()
	var due []*pushJob
	for len(s.jobs) > 0 && !s.jobs[0].at.After(now) {
		due = append(due, heap.Pop(&s.jobs).(*pushJob))
	}
	s.mu.Unlock()
	if len(due) == 0 {
		return 0, 0
	}

	// Group by endpoint, keeping first-seen group order and due order
	// within each group.
	groups := make(map[string]*endpointGroup)
	var order []string
	for _, job := range due {
		g := groups[job.endpoint]
		if g == nil {
			g = &endpointGroup{}
			groups[job.endpoint] = g
			order = append(order, job.endpoint)
		}
		g.jobs = append(g.jobs, job)
	}

	send := func(g *endpointGroup) {
		g.errs = make([]error, len(g.jobs))
		for i, job := range g.jobs {
			g.errs[i] = client.Send(job.endpoint, job.payload)
		}
	}
	if s.workers <= 1 || len(order) == 1 {
		for _, ep := range order {
			send(groups[ep])
		}
	} else {
		sem := make(chan struct{}, s.workers)
		var wg sync.WaitGroup
		for _, ep := range order {
			g := groups[ep]
			wg.Add(1)
			sem <- struct{}{}
			go func(g *endpointGroup) {
				defer wg.Done()
				defer func() { <-sem }()
				send(g)
			}(g)
		}
		wg.Wait()
	}

	// Fold outcomes in deterministic group order.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ep := range order {
		g := groups[ep]
		for i, job := range g.jobs {
			err := g.errs[i]
			if err == nil {
				delivered++
				continue
			}
			failed++
			if permanentSendError(err) {
				continue // expired/unknown registration: retrying is useless
			}
			job.attempts++
			if job.attempts >= s.maxAttempts {
				s.dropped++
			} else {
				s.retried++
				job.at = now.Add(s.retryDelay)
				heap.Push(&s.jobs, job)
			}
		}
	}
	return delivered, failed
}
