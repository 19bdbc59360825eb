// Package fcm implements the simulated push service standing in for
// Firebase Cloud Messaging (§2.2 of the paper): it mediates between
// application/ad servers and browser service workers. Registration mints
// a unique token per user and per service worker plus an endpoint URL the
// server pushes to; messages queue per subscription and are drained when
// the browser polls — which is how the crawler's suspended containers
// receive queued notifications on resume (§6.1.2).
//
// The service is exposed both as direct Go calls and as an HTTP API
// (mounted on a vnet host) because ad-network servers in the synthetic
// ecosystem talk to it over HTTP exactly as they would to real FCM.
package fcm

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/httpx"
	"pushadminer/internal/simclock"
	"pushadminer/internal/webpush"
)

// DefaultHost is the virtual hostname the push service is mounted on.
const DefaultHost = "fcm.simpush.test"

// maxQueue bounds the per-subscription queue; beyond it the oldest
// messages are dropped, like a real push service collapsing stale
// notifications.
const maxQueue = 256

// Service is the push service. The zero value is not ready; use New.
type Service struct {
	host string

	mu      sync.Mutex
	seq     map[string]int
	subs    map[string]*subscription
	dropped int
}

type subscription struct {
	sub   webpush.Subscription
	queue []webpush.Message
	sent  int
}

// New returns a push service that advertises endpoints on the given
// virtual host (DefaultHost if empty).
func New(host string) *Service {
	if host == "" {
		host = DefaultHost
	}
	return &Service{host: host, seq: make(map[string]int), subs: make(map[string]*subscription)}
}

// Host returns the virtual hostname the service is mounted on.
func (s *Service) Host() string { return s.host }

// Register creates a subscription for a service worker identified by its
// controlling origin and script URL, returning the token and endpoint.
func (s *Service) Register(origin, swURL string) webpush.Subscription {
	return s.register("", origin, swURL)
}

// register mints a subscription token from the registration identity —
// the requesting browser instance (like a real FCM instance token),
// origin, script, and a per-identity sequence — rather than a global
// arrival counter, so a set of concurrent registrations gets the same
// tokens regardless of the order their requests land — what keeps
// parallel crawls byte-identical to serial ones down to shard-state
// content.
func (s *Service) register(instance, origin, swURL string) webpush.Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := instance + "|" + origin + "|" + swURL
	h := fnv.New64a()
	h.Write([]byte(key))
	token := fmt.Sprintf("tok-%016x-%02d", h.Sum64(), s.seq[key])
	s.seq[key]++
	sub := webpush.Subscription{
		Token:    token,
		Endpoint: fmt.Sprintf("https://%s/send/%s", s.host, token),
		Origin:   origin,
		SWURL:    swURL,
	}
	s.subs[token] = &subscription{sub: sub}
	return sub
}

// Subscription looks a token up.
func (s *Service) Subscription(token string) (webpush.Subscription, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[token]
	if !ok {
		return webpush.Subscription{}, false
	}
	return st.sub, true
}

// Send queues a message for the subscription named by msg.Token. Unknown
// tokens are an error (the subscription was never created or was
// revoked).
func (s *Service) Send(msg webpush.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[msg.Token]
	if !ok {
		return fmt.Errorf("fcm: unknown token %q", msg.Token)
	}
	st.queue = append(st.queue, msg)
	if len(st.queue) > maxQueue {
		s.dropped += len(st.queue) - maxQueue
		st.queue = st.queue[len(st.queue)-maxQueue:]
	}
	st.sent++
	return nil
}

// Dropped reports how many queued messages were collapsed away by the
// per-subscription queue bound — loss that would otherwise be silent.
func (s *Service) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Poll drains and returns all queued messages for the given tokens, in
// send order per token. Unknown tokens are skipped, as a real service
// ignores polls for expired registrations.
func (s *Service) Poll(tokens []string) []webpush.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []webpush.Message
	for _, tok := range tokens {
		st, ok := s.subs[tok]
		if !ok || len(st.queue) == 0 {
			continue
		}
		out = append(out, st.queue...)
		st.queue = nil
	}
	return out
}

// Pending reports how many messages are queued for token.
func (s *Service) Pending(token string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[token]
	if !ok {
		return 0
	}
	return len(st.queue)
}

// TotalSent reports how many messages have ever been accepted for token.
func (s *Service) TotalSent(token string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[token]
	if !ok {
		return 0
	}
	return st.sent
}

// NumSubscriptions reports how many subscriptions exist.
func (s *Service) NumSubscriptions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// --- HTTP API ---

// registerRequest is the POST /register body.
type registerRequest struct {
	Origin string `json:"origin"`
	SWURL  string `json:"sw_url"`
}

// pollRequest is the POST /poll body.
type pollRequest struct {
	Tokens []string `json:"tokens"`
}

// pollResponse is the POST /poll response body.
type pollResponse struct {
	Messages []webpush.Message `json:"messages"`
}

// ServeHTTP implements the push service HTTP API:
//
//	POST /register        {origin, sw_url} → Subscription
//	POST /send/{token}    payload JSON     → 201
//	POST /poll            {tokens}         → {messages}
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/register":
		var req registerRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad register body", http.StatusBadRequest)
			return
		}
		// The tagged client header names the requesting browser
		// instance; folding it into the minting identity gives each
		// browser its own token for the same service worker, exactly
		// like real FCM instance tokens — and makes tokens independent
		// of cross-container registration order.
		writeJSON(w, http.StatusOK, s.register(r.Header.Get(chaos.ClientHeader), req.Origin, req.SWURL))

	case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/send/"):
		token := strings.TrimPrefix(r.URL.Path, "/send/")
		var data json.RawMessage
		if err := json.NewDecoder(r.Body).Decode(&data); err != nil {
			http.Error(w, "bad payload", http.StatusBadRequest)
			return
		}
		msg := webpush.Message{Token: token, Data: data}
		if err := s.Send(msg); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusCreated)

	case r.Method == http.MethodPost && r.URL.Path == "/poll":
		var req pollRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad poll body", http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, pollResponse{Messages: s.Poll(req.Tokens)})

	default:
		http.NotFound(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort response
}

// Client is a small HTTP client for the push service API, used by
// components that talk to FCM over the virtual network. Requests retry
// transient failures with capped backoff (see internal/httpx); a crawl
// must not die because one poll hit a hiccup. The service is simulated,
// so the backoff waits no real time (simclock.NoWait).
type Client struct {
	retry *httpx.Client
	Base  string // e.g. "https://fcm.simpush.test"
}

// NewClientWith returns a Client for the service mounted at host
// (DefaultHost if empty) using the given HTTP client. breaker, if
// non-nil, is a shared circuit breaker: while the push host's circuit
// is open, calls fail fast with an error wrapping httpx.ErrCircuitOpen
// instead of burning retries — one probe per cooldown discovers
// recovery.
func NewClientWith(httpClient *http.Client, host string, breaker *httpx.Breaker) *Client {
	if host == "" {
		host = DefaultHost
	}
	retry := httpx.New(httpClient, simclock.NoWait{Clock: simclock.Real{}}, httpx.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
	})
	if breaker != nil {
		retry.WithBreaker(breaker)
	}
	return &Client{retry: retry, Base: "https://" + host}
}

// WithRetryMetrics attaches retry counters to the client's retrying
// HTTP layer and returns the same client.
func (c *Client) WithRetryMetrics(m *httpx.RetryMetrics) *Client {
	c.retry.WithMetrics(m)
	return c
}

// Register calls POST /register.
func (c *Client) Register(origin, swURL string) (webpush.Subscription, error) {
	var sub webpush.Subscription
	err := c.post("/register", registerRequest{Origin: origin, SWURL: swURL}, &sub)
	return sub, err
}

// Send posts a payload to an endpoint URL (as returned by Register).
func (c *Client) Send(endpoint string, payload json.RawMessage) error {
	resp, err := c.retry.Post(endpoint, "application/json", mustMarshal(payload))
	if err != nil {
		return fmt.Errorf("fcm client: send: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("fcm client: send: status %d", resp.StatusCode)
	}
	return nil
}

// Poll calls POST /poll for the given tokens.
func (c *Client) Poll(tokens []string) ([]webpush.Message, error) {
	var out pollResponse
	if err := c.post("/poll", pollRequest{Tokens: tokens}, &out); err != nil {
		return nil, err
	}
	return out.Messages, nil
}

func (c *Client) post(path string, body, out interface{}) error {
	resp, err := c.retry.Post(c.Base+path, "application/json", mustMarshal(body))
	if err != nil {
		return fmt.Errorf("fcm client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fcm client: %s: status %d", path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func mustMarshal(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("fcm: marshal: %v", err))
	}
	return b
}
