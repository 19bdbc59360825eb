package httpx

import (
	"net/http"
	"net/url"
	"reflect"
	"testing"
)

func mustURL(t *testing.T, s string) *url.URL {
	t.Helper()
	u, err := url.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func cookieNames(cs []*http.Cookie) []string {
	var names []string
	for _, c := range cs {
		names = append(names, c.Name)
	}
	return names
}

func TestMemJarSetGetAndHostIsolation(t *testing.T) {
	jar := NewMemJar()
	a := mustURL(t, "http://ads.example.test/subscribe")
	b := mustURL(t, "http://other.example.test/")

	jar.SetCookies(a, []*http.Cookie{{Name: "uid", Value: "u-1"}})
	got := jar.Cookies(a)
	if len(got) != 1 || got[0].Name != "uid" || got[0].Value != "u-1" {
		t.Fatalf("Cookies(a) = %+v, want uid=u-1", got)
	}
	if got := jar.Cookies(b); len(got) != 0 {
		t.Fatalf("cookie leaked across hosts: %+v", got)
	}

	// Same name overwrites; new name adds, returned in sorted order.
	jar.SetCookies(a, []*http.Cookie{{Name: "uid", Value: "u-2"}, {Name: "ab", Value: "x"}})
	if names := cookieNames(jar.Cookies(a)); !reflect.DeepEqual(names, []string{"ab", "uid"}) {
		t.Fatalf("cookie order = %v, want [ab uid]", names)
	}
	for _, c := range jar.Cookies(a) {
		if c.Name == "uid" && c.Value != "u-2" {
			t.Fatalf("uid = %q, want overwritten u-2", c.Value)
		}
	}
}

func TestMemJarPathMatching(t *testing.T) {
	jar := NewMemJar()
	host := mustURL(t, "http://site.example.test/app/page")
	jar.SetCookies(host, []*http.Cookie{{Name: "scoped", Value: "v", Path: "/app"}})

	if got := jar.Cookies(mustURL(t, "http://site.example.test/app/other")); len(got) != 1 {
		t.Fatalf("path-matching subpath got %d cookies, want 1", len(got))
	}
	if got := jar.Cookies(mustURL(t, "http://site.example.test/elsewhere")); len(got) != 0 {
		t.Fatalf("non-matching path got cookies: %+v", got)
	}
}

// TestMemJarDeleteAndExportImport: a MaxAge<0 cookie deletes only its
// own name on its own host.
func TestMemJarDeleteAndExportImport(t *testing.T) {
	jar := NewMemJar()
	a := mustURL(t, "http://a.example.test/")
	b := mustURL(t, "http://b.example.test/")
	jar.SetCookies(a, []*http.Cookie{{Name: "keep", Value: "1"}, {Name: "gone", Value: "2"}})
	jar.SetCookies(b, []*http.Cookie{{Name: "gone", Value: "3"}})
	jar.SetCookies(a, []*http.Cookie{{Name: "gone", MaxAge: -1}})

	if got := cookieNames(jar.Cookies(a)); !reflect.DeepEqual(got, []string{"keep"}) {
		t.Fatalf("Cookies(a) after deleting gone = %v, want [keep]", got)
	}
	if got := jar.Cookies(b); len(got) != 1 || got[0].Name != "gone" || got[0].Value != "3" {
		t.Fatalf("Cookies(b) = %+v, want b's own gone=3", got)
	}
}
