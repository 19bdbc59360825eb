// Package httpx provides the retrying HTTP client used by the
// simulation's service clients (push service, blocklists). Crawling
// infrastructure lives or dies on tolerating transient failures: a
// dropped connection or a 5xx from one poll must not kill a two-month
// collection run. The wrapper retries idempotent-by-construction
// requests with capped exponential backoff and deterministic jitter.
package httpx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"pushadminer/internal/simclock"
	"pushadminer/internal/telemetry"
)

// RetryMetrics counts retry-loop activity for telemetry. All fields are
// optional (nil counters no-op); a nil *RetryMetrics disables counting
// entirely.
type RetryMetrics struct {
	// Retries counts re-attempts (every try after the first).
	Retries *telemetry.Counter
	// RetryAfterWaits counts backoff sleeps stretched by an honored
	// Retry-After header.
	RetryAfterWaits *telemetry.Counter
}

// RetryPolicy configures retry behaviour.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt
	// included). Default 3.
	MaxAttempts int
	// BaseDelay is the first backoff delay, doubled per retry. Default
	// 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Default 2s.
	MaxDelay time.Duration
	// RetryOn decides whether a response status merits a retry.
	// Default: 5xx and 429.
	RetryOn func(status int) bool
	// RetryAfterCap bounds how long an honored Retry-After header can
	// stretch one backoff sleep. Default: MaxDelay.
	RetryAfterCap time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.RetryOn == nil {
		p.RetryOn = func(status int) bool {
			return status >= 500 || status == http.StatusTooManyRequests
		}
	}
	if p.RetryAfterCap <= 0 {
		p.RetryAfterCap = p.MaxDelay
	}
	return p
}

// Client wraps an http.Client with retries. The zero value is unusable;
// use New.
type Client struct {
	http    *http.Client
	clock   simclock.Clock
	policy  RetryPolicy
	breaker *Breaker
	metrics *RetryMetrics
}

// WithMetrics attaches retry counters and returns the client.
func (c *Client) WithMetrics(m *RetryMetrics) *Client {
	c.metrics = m
	return c
}

// WithBreaker attaches a per-host circuit breaker and returns the
// client. While a host's circuit is open, requests fail fast with an
// error wrapping ErrCircuitOpen instead of being attempted.
func (c *Client) WithBreaker(b *Breaker) *Client {
	c.breaker = b
	return c
}

// New builds a retrying client. clock may be nil (real time).
func New(httpClient *http.Client, clock simclock.Clock, policy RetryPolicy) *Client {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Client{http: httpClient, clock: clock, policy: policy.withDefaults()}
}

// Get issues a GET with retries.
func (c *Client) Get(url string) (*http.Response, error) {
	return c.do(func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	}, url)
}

// Post issues a POST with retries; the body is buffered so it can be
// replayed on each attempt.
func (c *Client) Post(url, contentType string, body []byte) (*http.Response, error) {
	return c.do(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		return req, nil
	}, url)
}

// do wraps the attempt loop with circuit-breaker accounting: open
// circuits fail fast, and the loop's outcome (success, or a request
// that exhausted its retries / ended on a retryable status) feeds the
// breaker's consecutive-failure count.
func (c *Client) do(build func() (*http.Request, error), key string) (*http.Response, error) {
	host := hostOf(key)
	if c.breaker != nil && host != "" {
		if err := c.breaker.Allow(host); err != nil {
			return nil, fmt.Errorf("httpx: %s: %w", key, err)
		}
	}
	resp, err := c.attempts(build, key)
	if c.breaker != nil && host != "" {
		ok := err == nil && !c.policy.RetryOn(resp.StatusCode)
		c.breaker.Report(host, ok)
	}
	return resp, err
}

// attempts runs the retry loop. Transport errors are retried and
// surface as an error once attempts are exhausted; retryable HTTP
// statuses are retried but the FINAL response is returned to the caller
// (never swallowed), matching common retrying-client behaviour. A
// Retry-After header on 429/503 responses stretches the next backoff
// sleep up to RetryAfterCap. Context cancellation is terminal: a
// cancelled request is never retried.
func (c *Client) attempts(build func() (*http.Request, error), key string) (*http.Response, error) {
	var lastErr error
	delay := c.policy.BaseDelay
	for attempt := 1; attempt <= c.policy.MaxAttempts; attempt++ {
		req, err := build()
		if err != nil {
			return nil, fmt.Errorf("httpx: build request: %w", err)
		}
		var retryAfter time.Duration
		resp, err := c.http.Do(req)
		switch {
		case err != nil:
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, fmt.Errorf("httpx: %s: %w", key, err)
			}
			lastErr = err
		case c.policy.RetryOn(resp.StatusCode) && attempt < c.policy.MaxAttempts:
			retryAfter = parseRetryAfter(resp, c.clock.Now())
			// Drain so the connection can be reused, then retry.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
			resp.Body.Close()
			lastErr = fmt.Errorf("httpx: status %d", resp.StatusCode)
		default:
			return resp, nil
		}
		if attempt < c.policy.MaxAttempts {
			d := jitter(delay, key, attempt)
			if retryAfter > 0 {
				if m := c.metrics; m != nil {
					m.RetryAfterWaits.Inc()
				}
				if retryAfter > c.policy.RetryAfterCap {
					retryAfter = c.policy.RetryAfterCap
				}
				if retryAfter > d {
					d = retryAfter
				}
			}
			if m := c.metrics; m != nil {
				m.Retries.Inc()
			}
			c.clock.Sleep(d)
			delay *= 2
			if delay > c.policy.MaxDelay {
				delay = c.policy.MaxDelay
			}
		}
	}
	return nil, fmt.Errorf("httpx: %s: all %d attempts failed: %w", key, c.policy.MaxAttempts, lastErr)
}

// parseRetryAfter reads a Retry-After header as either delay-seconds or
// an HTTP date. Returns 0 when absent or unparseable.
func parseRetryAfter(resp *http.Response, now time.Time) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// hostOf extracts the host from a request key (a URL), for breaker
// bookkeeping. Returns "" when the key is not a URL.
func hostOf(key string) string {
	u, err := url.Parse(key)
	if err != nil {
		return ""
	}
	return u.Hostname()
}

// jitter perturbs a delay by ±25% deterministically per (key, attempt),
// so simulations replay identically while a fleet of real clients
// doesn't thunder in lockstep.
func jitter(d time.Duration, key string, attempt int) time.Duration {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", key, attempt)
	frac := float64(h.Sum64()%1000)/1000*0.5 - 0.25
	return d + time.Duration(float64(d)*frac)
}
