package leasesvc

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fuzzRoutes are every POST route of the lease and registry API.
var fuzzRoutes = []string{
	"/v1/leases/acquire", "/v1/leases/beat", "/v1/leases/release",
	"/v1/workers/register", "/v1/workers/beat", "/v1/workers/deregister",
}

// fuzzService builds a service on a frozen clock holding one live
// lease (c/0-of-2, token 1), one lease re-acquired after release
// (c/1-of-2, token 2, so token 1 is fenced), and one registered worker
// (w1, token 1) with an assignment.
func fuzzService(t *testing.T) *Service {
	ctx := context.Background()
	now := time.Unix(1_700_000_000, 0)
	s := NewService(time.Second)
	s.SetNow(func() time.Time { return now })
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Acquire(ctx, Key{"c", 0, 2}, "o1", 0)
	must(err)
	_, err = s.Acquire(ctx, Key{"c", 1, 2}, "o1", 0)
	must(err)
	must(s.Release(ctx, Key{"c", 1, 2}, 1))
	_, err = s.Acquire(ctx, Key{"c", 1, 2}, "o2", 0)
	must(err)
	_, err = s.RegisterWorker(ctx, "w1", "o1", 2, 0)
	must(err)
	must(s.Assign("w1", Placement{Campaign: "c", Dir: "/d", Shard: 0, Of: 2}))
	return s
}

// fuzzState is the service's lease and worker tables as GET returns
// them.
func fuzzState(t *testing.T, h http.Handler) string {
	var out bytes.Buffer
	for _, path := range []string{"/v1/leases", "/v1/workers"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		out.Write(rec.Body.Bytes())
	}
	return out.String()
}

// FuzzLeaseHandler POSTs arbitrary bodies to every lease and registry
// route of Service.Handler. Invariants: no body panics or draws a 5xx,
// and a rejected body (any non-200 answer) leaves the lease and worker
// tables unchanged.
func FuzzLeaseHandler(f *testing.F) {
	f.Add([]byte(`{"campaign":"c","shard":0,"of":2,"owner":"x","ttl_ms":1000}`))
	f.Add([]byte(`{"campaign":"c","shard":0,"of":2,"token":1,"seq":1,"done":1,"total":2}`))
	f.Add([]byte(`{"campaign":"c","shard":1,"of":2,"token":1}`))
	f.Add([]byte(`{"id":"w1","token":1,"seq":5}`))
	f.Add([]byte(`{"id":"w1","owner":"o","slots":2,"ttl_ms":-5}`))
	f.Add([]byte(`{"id":"w1","token":9}`))
	f.Add([]byte(`{"campaign":"","shard":-1,"of":0}`))
	f.Add([]byte(`{"campaign":"c","shard":0,"of":2}{"campaign":"d"}`))
	f.Add([]byte(`{"shard":1e400}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s := fuzzService(t)
		h := s.Handler()
		for _, route := range fuzzRoutes {
			before := fuzzState(t, h)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s: %d %s", route, rec.Code, rec.Body)
			}
			if after := fuzzState(t, h); rec.Code != http.StatusOK && after != before {
				t.Fatalf("POST %s rejected with %d but changed the state:\nbefore %s\nafter  %s", route, rec.Code, before, after)
			}
		}
	})
}
