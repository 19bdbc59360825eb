package httpx

import (
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
)

// storedCookie is one cookie as the jar keeps it.
type storedCookie struct {
	Name  string
	Value string
	Path  string
}

// MemJar is a deterministic in-memory http.CookieJar. It implements
// the host-scoped, path-prefixed subset of RFC 6265 the simulated
// ecosystem uses (host-only cookies, no Domain attribute matching, no
// expiry beyond MaxAge<0 deletion) — enough to stand in for
// net/http/cookiejar on the virtual network while sending cookies in a
// deterministic order.
type MemJar struct {
	mu      sync.Mutex
	cookies map[string]map[string]*storedCookie // host → name → cookie
}

// NewMemJar builds an empty MemJar.
func NewMemJar() *MemJar {
	return &MemJar{cookies: make(map[string]map[string]*storedCookie)}
}

// SetCookies stores the response cookies set by u's host.
func (j *MemJar) SetCookies(u *url.URL, cookies []*http.Cookie) {
	host := u.Hostname()
	if host == "" {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, c := range cookies {
		if c.Name == "" {
			continue
		}
		if c.MaxAge < 0 {
			if m := j.cookies[host]; m != nil {
				delete(m, c.Name)
			}
			continue
		}
		m := j.cookies[host]
		if m == nil {
			m = make(map[string]*storedCookie)
			j.cookies[host] = m
		}
		path := c.Path
		if path == "" {
			path = "/"
		}
		m[c.Name] = &storedCookie{Name: c.Name, Value: c.Value, Path: path}
	}
}

// Cookies returns the cookies to send with a request to u, in
// deterministic name order.
func (j *MemJar) Cookies(u *url.URL) []*http.Cookie {
	host := u.Hostname()
	path := u.Path
	if path == "" {
		path = "/"
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	m := j.cookies[host]
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for name, c := range m {
		if pathMatches(c.Path, path) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]*http.Cookie, 0, len(names))
	for _, name := range names {
		c := m[name]
		out = append(out, &http.Cookie{Name: c.Name, Value: c.Value})
	}
	return out
}

// pathMatches implements RFC 6265 §5.1.4 path matching.
func pathMatches(cookiePath, reqPath string) bool {
	if cookiePath == reqPath {
		return true
	}
	if !strings.HasPrefix(reqPath, cookiePath) {
		return false
	}
	return strings.HasSuffix(cookiePath, "/") || reqPath[len(cookiePath)] == '/'
}
