package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"herosign/internal/spx/params"
	"herosign/service"
)

// plainBackend implements only service.Backend.
type plainBackend struct{}

func (b *plainBackend) Name() string                   { return "plain" }
func (b *plainBackend) Capacity() int                  { return 4 }
func (b *plainBackend) Weight() float64                { return 1 }
func (b *plainBackend) Warm(*service.PrivateKey) error { return nil }
func (b *plainBackend) RunBatch(_ context.Context, _ *service.PrivateKey, job *service.Job) (*service.BatchOutput, error) {
	out := &service.BatchOutput{}
	for range job.Msgs {
		out.Sigs = append(out.Sigs, []byte("sig"))
		out.OK = append(out.OK, true)
	}
	return out, nil
}

// fullBackend implements every optional refinement with values no default
// would produce.
type fullBackend struct {
	plainBackend
	closed int
}

func (b *fullBackend) PreferredBatch() int { return 7 }
func (b *fullBackend) Available() bool     { return false }
func (b *fullBackend) MemoStats() (service.MemoStats, bool) {
	return service.MemoStats{Hits: 11, ResidentBytes: 13}, true
}
func (b *fullBackend) RemoteHealth() service.RemoteLeafStats {
	return service.RemoteLeafStats{URL: "http://leaf", HedgesSent: 3}
}
func (b *fullBackend) Close() error { b.closed++; return nil }

func TestWrapForwardsOptionalInterfaces(t *testing.T) {
	inner := &fullBackend{}
	w := newTracer().wrap(roleSvc, inner)

	if h, ok := w.(service.BatchHinter); !ok || h.PreferredBatch() != 7 {
		t.Errorf("PreferredBatch not forwarded")
	}
	if a, ok := w.(service.Availabler); !ok || a.Available() {
		t.Errorf("Available not forwarded")
	}
	if m, ok := w.(service.MemoReporter); !ok {
		t.Errorf("MemoStats not forwarded")
	} else if st, on := m.MemoStats(); !on || st.Hits != 11 || st.ResidentBytes != 13 {
		t.Errorf("MemoStats = %+v, %v", st, on)
	}
	if r, ok := w.(service.RemoteHealthReporter); !ok || r.RemoteHealth().HedgesSent != 3 {
		t.Errorf("RemoteHealth not forwarded")
	}
	if c, ok := w.(interface{ Close() error }); !ok || c.Close() != nil || inner.closed != 1 {
		t.Errorf("Close not forwarded")
	}
}

func TestWrapKeepsDefaultsOfPlainBackend(t *testing.T) {
	w := newTracer().wrap(roleSvc, &plainBackend{})
	if _, ok := w.(service.RemoteHealthReporter); ok {
		t.Fatal("a plain backend must not become a remote health reporter")
	}
	if w.(service.BatchHinter).PreferredBatch() != 0 {
		t.Error("PreferredBatch of a backend without a hint must be 0")
	}
	if !w.(service.Availabler).Available() {
		t.Error("a backend without Available must stay available")
	}
	if _, on := w.(service.MemoReporter).MemoStats(); on {
		t.Error("a backend without a cache must report none")
	}
	if w.(interface{ Close() error }).Close() != nil {
		t.Error("Close of a backend without Close must succeed")
	}
}

// TestTracedServiceMatchesUntraced builds one service around a backend
// and one around its wrapper and compares what the service derived from
// the optional interfaces.
func TestTracedServiceMatchesUntraced(t *testing.T) {
	key, err := masterKey(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		for _, b := range []service.Backend{&fullBackend{}, &plainBackend{}} {
			want := stats(t, key, b)
			if traced {
				b = newTracer().wrap(roleSvc, b)
			}
			got := stats(t, key, b)
			if got.MaxBatch != want.MaxBatch || len(got.RemoteLeaves) != len(want.RemoteLeaves) ||
				(got.Shards[0].Memo == nil) != (want.Shards[0].Memo == nil) {
				t.Errorf("%T traced=%v: max batch %d, %d remote leaves, memo %v; want %d, %d, %v", b, traced,
					got.MaxBatch, len(got.RemoteLeaves), got.Shards[0].Memo != nil,
					want.MaxBatch, len(want.RemoteLeaves), want.Shards[0].Memo != nil)
			}
		}
	}
}

func stats(t *testing.T, key *service.PrivateKey, b service.Backend) service.Stats {
	t.Helper()
	svc, err := service.New(service.WithParams(params.SPHINCSPlus128f), service.WithKey(key), service.WithBackends(b))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	return svc.Stats()
}

func TestRunBatchLinksMessagesToRequestsAndFronts(t *testing.T) {
	tr := newTracer()
	leaf := tr.wrap(roleLeaf, &plainBackend{})
	a, b := []byte("message-a"), []byte("message-b")
	tr.register(5, [][]byte{a})
	tr.register(6, [][]byte{b})

	var leafRan bool
	proxy := &proxyBackend{run: func(ctx context.Context, job *service.Job) {
		if ctx.Value(batchKey{}) == nil {
			t.Error("svc wrapper must pass its batch id in the context")
		}
		if _, err := leaf.RunBatch(context.Background(), nil, job); err != nil {
			t.Error(err)
		}
		leafRan = true
	}}
	svc := tr.wrap(roleSvc, proxy)
	if _, err := svc.RunBatch(context.Background(), nil, &service.Job{Msgs: [][]byte{a, b}}); err != nil {
		t.Fatal(err)
	}
	if !leafRan {
		t.Fatal("inner backend did not run")
	}
	batches, _, collisions := tr.snapshot()
	if collisions != 0 || len(batches) != 2 {
		t.Fatalf("got %d batches, %d collisions", len(batches), collisions)
	}
	leafB, svcB := batches[0], batches[1]
	if leafB.role != roleLeaf || svcB.role != roleSvc {
		t.Fatalf("roles %s, %s", leafB.role, svcB.role)
	}
	if len(svcB.reqs) != 2 || svcB.reqs[0] != 5 || svcB.reqs[1] != 6 {
		t.Errorf("svc batch requests %v, want [5 6]", svcB.reqs)
	}
	if len(leafB.fronts) != 1 || leafB.fronts[0] != svcB.id {
		t.Errorf("leaf batch fronts %v, want [%d]", leafB.fronts, svcB.id)
	}
	if len(tr.frontOf) != 0 {
		t.Errorf("front links outlive their batch: %v", tr.frontOf)
	}
	tr.register(7, [][]byte{a})
	if _, _, c := tr.snapshot(); c != 1 {
		t.Errorf("re-registering an in-flight message: %d collisions, want 1", c)
	}
}

type proxyBackend struct {
	plainBackend
	run func(context.Context, *service.Job)
}

func (p *proxyBackend) RunBatch(ctx context.Context, key *service.PrivateKey, job *service.Job) (*service.BatchOutput, error) {
	p.run(ctx, job)
	return p.plainBackend.RunBatch(ctx, key, job)
}

func TestMiddlewareAndRoundTripperTagSpans(t *testing.T) {
	tr := newTracer()
	leafSrv := httptest.NewServer(tr.middleware(roleLeaf, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer leafSrv.Close()
	hc := &http.Client{Transport: tr.roundTripper(http.DefaultTransport)}
	defer hc.CloseIdleConnections()
	ctx := context.WithValue(context.Background(), batchKey{}, int64(42))
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, leafSrv.URL, nil)
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if req.Header.Get(batchHeader) != "" {
		t.Error("round tripper must not modify the caller's request")
	}

	front := httptest.NewServer(tr.middleware(roleSvc, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})))
	defer front.Close()
	req, _ = http.NewRequest(http.MethodGet, front.URL, nil)
	req.Header.Set(requestHeader, "9")
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	_, leafHandlers, _ := tr.snapshot()
	if _, ok := leafHandlers[42]; !ok {
		t.Errorf("leaf handler span for batch 42 missing: %v", leafHandlers)
	}
	if _, ok := tr.handler(9); !ok {
		t.Error("handler span for request 9 missing")
	}
}

func TestDecomposeAddsUpToLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	due, sent, done := at(0), at(3), at(40)
	h := span{at(4), at(39)}
	runs := []span{{at(10), at(20)}, {at(22), at(30)}}
	p, ok := decompose(due, sent, done, h, true, runs)
	if !ok || !p.ordered {
		t.Fatalf("decompose = %+v, %v", p, ok)
	}
	want := parts{wait: 3 * time.Millisecond, transport: 2 * time.Millisecond,
		queue: 6 * time.Millisecond, run: 20 * time.Millisecond, reply: 9 * time.Millisecond, ordered: true}
	if p != want {
		t.Errorf("parts = %+v, want %+v", p, want)
	}
	if p.sum() != done.Sub(due) {
		t.Errorf("parts sum to %v, latency is %v", p.sum(), done.Sub(due))
	}

	// A batch that started before the handler cannot belong to it.
	if p, _ := decompose(due, sent, done, h, true, []span{{at(1), at(20)}}); p.ordered {
		t.Error("a batch starting before its handler must be reported as misordered")
	}
	if _, ok := decompose(due, sent, done, h, false, runs); ok {
		t.Error("a request without a handler span must be unlinked")
	}
	if _, ok := decompose(due, sent, done, h, true, nil); ok {
		t.Error("a request without batches must be unlinked")
	}
}

func TestOverlap(t *testing.T) {
	t0 := time.Unix(0, 0)
	w := span{t0.Add(10), t0.Add(20)}
	for _, c := range []struct {
		s    span
		want time.Duration
	}{
		{span{t0.Add(12), t0.Add(15)}, 3},
		{span{t0.Add(5), t0.Add(15)}, 5},
		{span{t0.Add(18), t0.Add(30)}, 2},
		{span{t0.Add(21), t0.Add(30)}, 0},
	} {
		if got := overlap(c.s, w); got != c.want {
			t.Errorf("overlap(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}
