package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"herosign/internal/gpu/device"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
	"herosign/service"
)

var testKeyOnce struct {
	sync.Once
	sk *spx.PrivateKey
}

// testKey matches the service package's deterministic test key so signers
// warmed by other test binaries stay cache-compatible.
func testKey(t *testing.T) *spx.PrivateKey {
	t.Helper()
	testKeyOnce.Do(func() {
		p := params.SPHINCSPlus128f
		sk, err := spx.KeyFromSeeds(p,
			bytes.Repeat([]byte{0x5a}, p.N),
			bytes.Repeat([]byte{0xa5}, p.N),
			bytes.Repeat([]byte{0x3c}, p.N))
		if err != nil {
			panic(err)
		}
		testKeyOnce.sk = sk
	})
	return testKeyOnce.sk
}

// newLeafServer starts a real herosign service behind its HTTP handler — an
// actual leaf, signing for real.
func newLeafServer(t *testing.T, key *spx.PrivateKey) (*service.Service, *httptest.Server) {
	t.Helper()
	dev, err := device.ByName("RTX 4090")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(
		service.WithParams(params.SPHINCSPlus128f),
		service.WithKey(key),
		service.WithDevices(dev),
		service.WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

// TestFleetProxySignByteIdentical is the tentpole acceptance check: a front
// end whose only backend proxies to a real leaf over HTTP must produce
// signatures byte-identical to local signing (same key, same message, same
// bytes), and surface the leaf's health under /v1/stats.
func TestFleetProxySignByteIdentical(t *testing.T) {
	key := testKey(t)
	_, leafTS := newLeafServer(t, key)

	fleet, err := NewFleet([]string{leafTS.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	front, err := service.New(
		service.WithParams(params.SPHINCSPlus128f),
		service.WithKey(key),
		service.WithBackends(fleet.Backends()...),
		service.WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	msgs := [][]byte{[]byte("proxy-0"), []byte("proxy-1"), []byte("proxy-2")}
	futs, err := submitBatch(front, msgs)
	if err != nil {
		t.Fatalf("proxied batch sign: %v", err)
	}
	ctx := t.Context()
	sigs := make([][]byte, len(futs))
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("proxied sign %d: %v", i, err)
		}
		want, err := spx.Sign(key, msgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Sig, want) {
			t.Fatalf("proxied signature %d differs from local signing", i)
		}
		sigs[i] = res.Sig
	}

	// Verify through the proxy too.
	vf, err := submitOne(front, service.KindVerify, "", service.Item{Msg: msgs[0], Sig: sigs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := vf.Wait(ctx); err != nil || !res.Valid {
		t.Fatalf("proxied verify: %+v err=%v", res, err)
	}
	vf, err = submitOne(front, service.KindVerify, "", service.Item{Msg: []byte("tampered"), Sig: sigs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := vf.Wait(ctx); err != nil || res.Valid {
		t.Fatalf("proxied verify accepted tampered message: %+v err=%v", res, err)
	}

	st := front.Stats()
	if len(st.RemoteLeaves) != 1 {
		t.Fatalf("front stats list %d remote leaves, want 1", len(st.RemoteLeaves))
	}
	rl := st.RemoteLeaves[0]
	if rl.State != "healthy" || rl.PrimarySends == 0 {
		t.Fatalf("remote leaf stats: %+v", rl)
	}
	if !strings.HasPrefix(st.Devices[0].Device, "remote(") {
		t.Fatalf("backend name %q, want remote(host)", st.Devices[0].Device)
	}
}

// TestWarmRejectsMismatchedKey: a leaf launched with a different master key
// must fail the front end's construction, not silently produce signatures
// under the wrong key domain.
func TestWarmRejectsMismatchedKey(t *testing.T) {
	p := params.SPHINCSPlus128f
	otherKey, err := spx.KeyFromSeeds(p,
		bytes.Repeat([]byte{0x11}, p.N),
		bytes.Repeat([]byte{0x22}, p.N),
		bytes.Repeat([]byte{0x33}, p.N))
	if err != nil {
		t.Fatal(err)
	}
	_, leafTS := newLeafServer(t, otherKey)

	fleet, err := NewFleet([]string{leafTS.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	_, err = service.New(
		service.WithParams(p),
		service.WithKey(testKey(t)),
		service.WithBackends(fleet.Backends()...),
	)
	if err == nil || !strings.Contains(err.Error(), "does not serve key domain") {
		t.Fatalf("front construction error = %v, want key-domain mismatch", err)
	}
}

// fakeLeaf is a scriptable leaf: real wire format, fake execution. It lets
// the health and failover paths run in milliseconds.
type fakeLeaf struct {
	t     *testing.T
	name  string
	key   *spx.PrivateKey
	keyID string

	mu sync.Mutex
	// delay and status script every batch endpoint (sign, verify, keygen):
	// status 0 serves, otherwise it is the HTTP status to return.
	delay        time.Duration
	status       int
	retryAfterMs int64
	statsStatus  int // 0 serves; otherwise /v1/stats returns this

	calls    atomic.Int64 // batch requests received
	signMsgs atomic.Int64

	srv *httptest.Server
}

func (f *fakeLeaf) set(fn func(*fakeLeaf)) {
	f.mu.Lock()
	fn(f)
	f.mu.Unlock()
}

// sig fabricates a recognizable per-leaf signature.
func (f *fakeLeaf) sig(msg []byte) []byte {
	return append([]byte("sig:"+f.name+":"), msg...)
}

// root fabricates a recognizable per-leaf public root for keygen.
func (f *fakeLeaf) root() []byte {
	return bytes.Repeat([]byte(f.name[:1]), f.key.Params.N)
}

// scripted applies the leaf's scripted delay and status to one batch
// request, reporting whether it already answered it.
func (f *fakeLeaf) scripted(w http.ResponseWriter, r *http.Request) bool {
	f.calls.Add(1)
	f.mu.Lock()
	delay, status, retry := f.delay, f.status, f.retryAfterMs
	f.mu.Unlock()
	if delay > 0 {
		// Buffer the body first: the server notices a vanished client
		// (canceling r.Context) only once the body has been read.
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return true
		}
	}
	if status == 0 {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"error": "scripted failure", "retry_after_ms": retry,
	})
	return true
}

func newFakeLeaf(t *testing.T, name string, key *spx.PrivateKey) *fakeLeaf {
	f := &fakeLeaf{t: t, name: name, key: key, keyID: service.KeyID(&key.PublicKey)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/keys", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"params": key.Params.Name,
			"keys": []map[string]any{{
				"key_id": f.keyID, "shard": 0, "public_key": key.PublicKey.Bytes(),
			}},
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		status := f.statsStatus
		f.mu.Unlock()
		if status != 0 {
			http.Error(w, "stats down", status)
			return
		}
		json.NewEncoder(w).Encode(service.Stats{
			Params:   key.Params.Name,
			MaxBatch: 64,
			Devices:  []service.BackendStats{{SignMsgs: f.signMsgs.Load()}},
			Shards: []service.ShardStats{{
				KeyID: f.keyID, QueueLimit: 128, WeightSigsPerSec: 100,
			}},
		})
	})
	mux.HandleFunc("POST /v1/sign/batch", func(w http.ResponseWriter, r *http.Request) {
		if f.scripted(w, r) {
			return
		}
		var req struct {
			Messages [][]byte `json:"messages"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sigs := make([][]byte, len(req.Messages))
		for i, m := range req.Messages {
			sigs[i] = f.sig(m)
		}
		f.signMsgs.Add(int64(len(req.Messages)))
		json.NewEncoder(w).Encode(map[string]any{"key_id": f.keyID, "signatures": sigs})
	})
	// A signature verifies on this leaf only if this leaf fabricated it, so
	// verdicts name the leaf that answered.
	mux.HandleFunc("POST /v1/verify/batch", func(w http.ResponseWriter, r *http.Request) {
		if f.scripted(w, r) {
			return
		}
		var req struct {
			Messages   [][]byte `json:"messages"`
			Signatures [][]byte `json:"signatures"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		valid := make([]bool, len(req.Messages))
		for i, m := range req.Messages {
			valid[i] = i < len(req.Signatures) && bytes.Equal(req.Signatures[i], f.sig(m))
		}
		json.NewEncoder(w).Encode(map[string]any{"key_id": f.keyID, "valid": valid})
	})
	// Keygen echoes the seeds and stamps this leaf's root on every key.
	mux.HandleFunc("POST /v1/keygen", func(w http.ResponseWriter, r *http.Request) {
		if f.scripted(w, r) {
			return
		}
		var req struct {
			Seeds []struct {
				SKSeed []byte `json:"sk_seed"`
				SKPRF  []byte `json:"sk_prf"`
				PKSeed []byte `json:"pk_seed"`
			} `json:"seeds"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		keys := make([]map[string]any, len(req.Seeds))
		for i, sd := range req.Seeds {
			sk := slices.Concat(sd.SKSeed, sd.SKPRF, sd.PKSeed, f.root())
			keys[i] = map[string]any{"private_key": sk}
		}
		json.NewEncoder(w).Encode(map[string]any{"keys": keys})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// fakeFleet wires fake leaves into a warmed Fleet without a front service.
func fakeFleet(t *testing.T, opts Options, leaves ...*fakeLeaf) (*Fleet, []*Backend) {
	t.Helper()
	urls := make([]string, len(leaves))
	for i, l := range leaves {
		urls[i] = l.srv.URL
	}
	fleet, err := NewFleet(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	backends := make([]*Backend, len(leaves))
	for i, b := range fleet.Backends() {
		rb := b.(*Backend)
		if err := rb.Warm(leaves[i].key); err != nil {
			t.Fatalf("warming fake leaf %d: %v", i, err)
		}
		backends[i] = rb
	}
	return fleet, backends
}

func signJob(msgs ...string) *service.Job {
	j := &service.Job{Kind: service.KindSign}
	for _, m := range msgs {
		j.Msgs = append(j.Msgs, []byte(m))
	}
	return j
}

// slowProbes keeps the health checker out of short scripted tests.
var slowProbes = Options{ProbeInterval: time.Hour}

// TestRetryAfterPropagation: overloaded leaves must surface THEIR drain
// estimate — the max across attempted leaves — not one recomputed from the
// front end's empty queue, and a 429 must not count toward ejection.
func TestRetryAfterPropagation(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	b := newFakeLeaf(t, "b", key)
	a.set(func(f *fakeLeaf) { f.status = 429; f.retryAfterMs = 200 })
	b.set(func(f *fakeLeaf) { f.status = 429; f.retryAfterMs = 1500 })

	_, backends := fakeFleet(t, slowProbes, a, b)
	_, err := backends[0].RunBatch(t.Context(), key, signJob("m"))
	var over *service.OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("err = %v, want OverloadError", err)
	}
	if over.Scope != "leaf" {
		t.Fatalf("overload scope %q, want leaf", over.Scope)
	}
	if over.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 1.5s (max across attempted leaves)", over.RetryAfter)
	}
	if !errors.Is(err, service.ErrOverloaded) {
		t.Fatal("leaf overload does not unwrap to ErrOverloaded")
	}
	// Both leaves were tried (failover across replicas), neither ejected.
	if a.calls.Load() != 1 || b.calls.Load() != 1 {
		t.Fatalf("sign calls a=%d b=%d, want 1 each", a.calls.Load(), b.calls.Load())
	}
	for _, rb := range backends {
		if !rb.Available() {
			t.Fatal("a 429 must not eject a leaf")
		}
	}
}

// TestFailoverOnHardError: for every batch kind, a 5xx from the primary
// reroutes the batch to a sibling replica without surfacing an error, and
// the failover is charged to the leaf that failed.
func TestFailoverOnHardError(t *testing.T) {
	key := testKey(t)
	p := key.Params
	seed := func(b byte) service.SeedTriple {
		return service.SeedTriple{
			SKSeed: bytes.Repeat([]byte{b}, p.N),
			SKPRF:  bytes.Repeat([]byte{b + 1}, p.N),
			PKSeed: bytes.Repeat([]byte{b + 2}, p.N),
		}
	}
	cases := []struct {
		name  string
		job   func(a, b *fakeLeaf) *service.Job
		check func(t *testing.T, out *service.BatchOutput, a, b *fakeLeaf)
	}{
		{"sign",
			func(a, b *fakeLeaf) *service.Job { return signJob("m0", "m1") },
			func(t *testing.T, out *service.BatchOutput, a, b *fakeLeaf) {
				for i, m := range []string{"m0", "m1"} {
					if !bytes.Equal(out.Sigs[i], b.sig([]byte(m))) {
						t.Fatalf("signature %d did not come from the sibling leaf", i)
					}
				}
			}},
		{"verify",
			func(a, b *fakeLeaf) *service.Job {
				msgs := [][]byte{[]byte("m0"), []byte("m1")}
				return &service.Job{Kind: service.KindVerify, Msgs: msgs,
					Sigs: [][]byte{b.sig(msgs[0]), a.sig(msgs[1])}}
			},
			func(t *testing.T, out *service.BatchOutput, a, b *fakeLeaf) {
				if !slices.Equal(out.OK, []bool{true, false}) {
					t.Fatalf("verdicts %v, want the sibling's [true false]", out.OK)
				}
			}},
		{"keygen",
			func(a, b *fakeLeaf) *service.Job {
				return &service.Job{Kind: service.KindKeyGen,
					Seeds: []service.SeedTriple{seed(1), seed(7)}}
			},
			func(t *testing.T, out *service.BatchOutput, a, b *fakeLeaf) {
				for i, sd := range []service.SeedTriple{seed(1), seed(7)} {
					k := out.Keys[i]
					if !bytes.Equal(k.SKSeed, sd.SKSeed) || !bytes.Equal(k.SKPRF, sd.SKPRF) ||
						!bytes.Equal(k.PublicKey.Seed, sd.PKSeed) {
						t.Fatalf("key %d does not match its seeds", i)
					}
					if !bytes.Equal(k.PublicKey.Root, b.root()) {
						t.Fatalf("key %d did not come from the sibling leaf", i)
					}
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newFakeLeaf(t, "a", key)
			b := newFakeLeaf(t, "b", key)
			a.set(func(f *fakeLeaf) { f.status = 500 })

			_, backends := fakeFleet(t, slowProbes, a, b)
			out, err := backends[0].RunBatch(t.Context(), key, tc.job(a, b))
			if err != nil {
				t.Fatalf("failover batch: %v", err)
			}
			tc.check(t, out, a, b)
			if got := backends[0].RemoteHealth().Failovers; got != 1 {
				t.Fatalf("failovers = %d, want 1", got)
			}
			if got := backends[1].RemoteHealth().Failovers; got != 0 {
				t.Fatalf("sibling failovers = %d, want 0", got)
			}
		})
	}
}

// TestCallerCancelSparesLeafHealth: a caller that gives up mid-attempt gets
// its ctx error back, and the abandoned attempt counts neither as a leaf
// error nor as a failover.
func TestCallerCancelSparesLeafHealth(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	b := newFakeLeaf(t, "b", key)
	a.set(func(f *fakeLeaf) { f.delay = 5 * time.Second })

	_, backends := fakeFleet(t, slowProbes, a, b)
	ctx, cancel := context.WithCancel(t.Context())
	time.AfterFunc(50*time.Millisecond, cancel)
	_, err := backends[0].RunBatch(ctx, key, signJob("m"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := backends[0].RemoteHealth()
	if st.Errors != 0 || st.Failovers != 0 {
		t.Fatalf("canceled attempt counted against the leaf: %+v", st)
	}
	if !backends[0].Available() {
		t.Fatal("a caller cancellation must not make the leaf unavailable")
	}
	if b.calls.Load() != 0 {
		t.Fatal("a canceled batch must not fail over")
	}
}

// TestRequestFailureEjection: consecutive hard request failures quarantine
// the leaf without waiting for a probe tick.
func TestRequestFailureEjection(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	b := newFakeLeaf(t, "b", key)
	a.set(func(f *fakeLeaf) { f.status = 500 })

	_, backends := fakeFleet(t, slowProbes, a, b)
	for i := 0; i < 2; i++ {
		if _, err := backends[0].RunBatch(t.Context(), key, signJob("m")); err != nil {
			t.Fatalf("batch %d should have failed over: %v", i, err)
		}
	}
	if backends[0].Available() {
		t.Fatal("leaf still available after consecutive hard failures")
	}
	if backends[0].Weight() != 0 {
		t.Fatalf("ejected leaf weight = %v, want 0", backends[0].Weight())
	}
	if st := backends[0].RemoteHealth(); st.State != "ejected" || st.Ejections != 1 {
		t.Fatalf("leaf health: %+v", st)
	}
}

// TestProbeEjectionAndRecovery drives the full health state machine: a leaf
// whose probes fail is ejected within one probe interval, sits out its
// quarantine, returns via a half-open trial and is restored by a success.
func TestProbeEjectionAndRecovery(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	opts := Options{
		ProbeInterval:  20 * time.Millisecond,
		BaseQuarantine: 40 * time.Millisecond,
	}
	_, backends := fakeFleet(t, opts, a)
	rb := backends[0]

	a.set(func(f *fakeLeaf) { f.statsStatus = 503 })
	deadline := time.Now().Add(2 * time.Second)
	for rb.Available() {
		if time.Now().After(deadline) {
			t.Fatal("leaf not ejected after repeated probe failures")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := rb.RemoteHealth(); st.State != "ejected" || st.ProbeFailures == 0 {
		t.Fatalf("leaf health after probe failures: %+v", st)
	}

	// Heal the leaf: after the quarantine a good probe moves it half-open.
	a.set(func(f *fakeLeaf) { f.statsStatus = 0 })
	for rb.RemoteHealth().State != "half-open" {
		if time.Now().After(deadline) {
			t.Fatal("leaf never reached half-open after quarantine")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !rb.Available() {
		t.Fatal("half-open leaf with no trial in flight must accept one")
	}

	// One successful trial restores it.
	if _, err := rb.RunBatch(t.Context(), key, signJob("trial")); err != nil {
		t.Fatalf("half-open trial: %v", err)
	}
	if st := rb.RemoteHealth(); st.State != "healthy" {
		t.Fatalf("leaf state after successful trial = %s, want healthy", st.State)
	}
}

// TestFleetRefcountClose: the router closes each backend after its pool
// drains; the last release stops the probe loop.
func TestFleetRefcountClose(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	b := newFakeLeaf(t, "b", key)
	fleet, backends := fakeFleet(t, slowProbes, a, b)
	backends[0].Close()
	select {
	case <-fleet.stop:
		t.Fatal("fleet stopped after first backend close")
	default:
	}
	backends[1].Close()
	select {
	case <-fleet.stop:
	default:
		t.Fatal("fleet still running after last backend close")
	}
	// Double close is harmless.
	backends[1].Close()
	fleet.Close()
}

func TestNewFleetRejectsBadURLs(t *testing.T) {
	if _, err := NewFleet(nil, Options{}); err == nil {
		t.Fatal("empty URL list accepted")
	}
	for _, bad := range []string{"", "localhost:8080", "not a url"} {
		if _, err := NewFleet([]string{bad}, Options{}); err == nil {
			t.Fatalf("URL %q accepted", bad)
		}
	}
}

func TestBackendBeforeWarm(t *testing.T) {
	key := testKey(t)
	a := newFakeLeaf(t, "a", key)
	fleet, err := NewFleet([]string{a.srv.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	rb := fleet.Backends()[0].(*Backend)
	if _, err := rb.RunBatch(t.Context(), key, signJob("m")); err == nil ||
		!strings.Contains(err.Error(), "before Warm") {
		t.Fatalf("RunBatch before Warm: %v", err)
	}
}

// submitOne submits a single item of kind under keyID on the front.
func submitOne(front *service.Service, kind service.Kind, keyID string, it service.Item) (*service.Future, error) {
	futs, err := front.Submit(context.Background(), service.Request{Kind: kind, KeyID: keyID, Items: []service.Item{it}})
	if err != nil {
		return nil, err
	}
	return futs[0], nil
}

// submitSign submits one message for signing on the front.
func submitSign(front *service.Service, msg []byte) (*service.Future, error) {
	return submitOne(front, service.KindSign, "", service.Item{Msg: msg})
}

// submitBatch submits msgs for signing as one all-or-nothing batch.
func submitBatch(front *service.Service, msgs [][]byte) ([]*service.Future, error) {
	items := make([]service.Item, len(msgs))
	for i, m := range msgs {
		items[i].Msg = m
	}
	return front.Submit(context.Background(), service.Request{Kind: service.KindSign, Items: items})
}
