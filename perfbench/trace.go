package main

import (
	"context"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"herosign/service"
)

// Tracing headers. The load generator tags every request with its id; the
// front end's proxy transport tags every leaf call with the id of the
// front-end batch that made it.
const (
	requestHeader = "X-Perfbench-Request"
	batchHeader   = "X-Perfbench-Batch"
)

// Backend roles. "svc" backends serve the client-facing service; "leaf"
// backends serve the leaf behind a front end's remote proxy.
const (
	roleSvc  = "svc"
	roleLeaf = "leaf"
)

type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// batchSpan is one RunBatch call of a wrapped backend.
type batchSpan struct {
	role string
	id   int64
	span
	n int
	// reqs are the client requests whose messages rode in the batch; for a
	// leaf batch, fronts are the front-end batches that carried them.
	reqs   []int32
	fronts []int64
}

type batchKey struct{}

// tracer records spans at the layer boundaries the benchmark can reach
// from outside the program: the HTTP handler, every Backend's RunBatch and
// the front end's calls to its leaves. Spans stay in memory until the run
// ends.
type tracer struct {
	nextBatch atomic.Int64

	mu           sync.Mutex
	inflight     map[string]int32 // message -> client request carrying it
	frontOf      map[string]int64 // message -> svc batch proxying it
	collisions   int              // messages registered while already in flight
	handlers     map[int32]span   // client-facing handler spans by request id
	leafHandlers map[int64]span   // leaf handler spans by front-end batch id
	batches      []batchSpan
}

func newTracer() *tracer {
	return &tracer{
		inflight:     make(map[string]int32),
		frontOf:      make(map[string]int64),
		handlers:     make(map[int32]span),
		leafHandlers: make(map[int64]span),
	}
}

// register links msgs to client request id until unregister.
func (t *tracer) register(id int32, msgs [][]byte) {
	t.mu.Lock()
	for _, m := range msgs {
		if _, dup := t.inflight[string(m)]; dup {
			t.collisions++
		}
		t.inflight[string(m)] = id
	}
	t.mu.Unlock()
}

func (t *tracer) unregister(msgs [][]byte) {
	t.mu.Lock()
	for _, m := range msgs {
		delete(t.inflight, string(m))
	}
	t.mu.Unlock()
}

// middleware records the handler span of every tagged request: client
// requests on the client-facing service, front-end batches on a leaf.
func (t *tracer) middleware(role string, next http.Handler) http.Handler {
	header := requestHeader
	if role == roleLeaf {
		header = batchHeader
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(header)
		if tag == "" {
			next.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseInt(tag, 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		if err != nil {
			return
		}
		t.mu.Lock()
		if role == roleLeaf {
			t.leafHandlers[id] = span{start, end}
		} else {
			t.handlers[int32(id)] = span{start, end}
		}
		t.mu.Unlock()
	})
}

// roundTripper tags each proxied leaf call with the front-end batch that
// made it (carried in the request context by the svc backend wrapper).
func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return rtFunc(func(r *http.Request) (*http.Response, error) {
		if id, ok := r.Context().Value(batchKey{}).(int64); ok {
			r = r.Clone(r.Context())
			r.Header.Set(batchHeader, strconv.FormatInt(id, 10))
		}
		return next.RoundTrip(r)
	})
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// wrap returns b with every RunBatch traced. The wrapper forwards each
// optional Backend refinement so the service batches, routes, reports and
// closes exactly as it would with b itself: methods b lacks answer with the
// value the service assumes for a backend without them.
func (t *tracer) wrap(role string, b service.Backend) service.Backend {
	tb := &tracedBackend{Backend: b, t: t, role: role}
	if _, ok := b.(service.RemoteHealthReporter); ok {
		// RemoteHealth has no neutral answer (Stats lists every reporter
		// as a remote leaf), so only remote backends get it.
		return &tracedRemoteBackend{tb}
	}
	return tb
}

type tracedBackend struct {
	service.Backend
	t    *tracer
	role string
}

func (b *tracedBackend) RunBatch(ctx context.Context, key *service.PrivateKey, job *service.Job) (*service.BatchOutput, error) {
	t := b.t
	id := t.nextBatch.Add(1)
	bs := batchSpan{role: b.role, id: id, n: len(job.Msgs)}
	t.mu.Lock()
	for _, m := range job.Msgs {
		if r, ok := t.inflight[string(m)]; ok && !slices.Contains(bs.reqs, r) {
			bs.reqs = append(bs.reqs, r)
		}
		if b.role == roleSvc {
			t.frontOf[string(m)] = id
		} else if f, ok := t.frontOf[string(m)]; ok && !slices.Contains(bs.fronts, f) {
			bs.fronts = append(bs.fronts, f)
		}
	}
	t.mu.Unlock()

	bs.start = time.Now()
	out, err := b.Backend.RunBatch(context.WithValue(ctx, batchKey{}, id), key, job)
	bs.end = time.Now()

	t.mu.Lock()
	if b.role == roleSvc {
		for _, m := range job.Msgs {
			if t.frontOf[string(m)] == id {
				delete(t.frontOf, string(m))
			}
		}
	}
	t.batches = append(t.batches, bs)
	t.mu.Unlock()
	return out, err
}

// PreferredBatch forwards service.BatchHinter; 0 is what New assumes of a
// backend without a hint.
func (b *tracedBackend) PreferredBatch() int {
	if h, ok := b.Backend.(service.BatchHinter); ok {
		return h.PreferredBatch()
	}
	return 0
}

// Available forwards service.Availabler; backends without it are always
// available.
func (b *tracedBackend) Available() bool {
	if a, ok := b.Backend.(service.Availabler); ok {
		return a.Available()
	}
	return true
}

// MemoStats forwards service.MemoReporter; false means "no cache".
func (b *tracedBackend) MemoStats() (service.MemoStats, bool) {
	if m, ok := b.Backend.(service.MemoReporter); ok {
		return m.MemoStats()
	}
	return service.MemoStats{}, false
}

// Close forwards io.Closer.
func (b *tracedBackend) Close() error {
	if c, ok := b.Backend.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

type tracedRemoteBackend struct{ *tracedBackend }

func (b *tracedRemoteBackend) RemoteHealth() service.RemoteLeafStats {
	return b.Backend.(service.RemoteHealthReporter).RemoteHealth()
}

// parts is one client request's latency split at the traced boundaries.
// The five parts add up to the client-observed latency by construction;
// ordered is false when the spans contradict each other (a part came out
// negative), which means the request was linked to the wrong spans.
type parts struct {
	wait, transport, queue, run, reply time.Duration
	ordered                            bool
}

func (p parts) sum() time.Duration { return p.wait + p.transport + p.queue + p.run + p.reply }

// decompose splits one client request (due -> sent -> done) at its handler
// span and at the first start and last end of the svc batches that carried
// its messages. ok is false when a span is missing.
func decompose(due, sent, done time.Time, h span, haveHandler bool, runs []span) (parts, bool) {
	if !haveHandler || len(runs) == 0 {
		return parts{}, false
	}
	first, last := runs[0].start, runs[0].end
	for _, r := range runs[1:] {
		if r.start.Before(first) {
			first = r.start
		}
		if r.end.After(last) {
			last = r.end
		}
	}
	p := parts{
		wait:      sent.Sub(due),
		transport: done.Sub(sent) - h.dur(),
		queue:     first.Sub(h.start),
		run:       last.Sub(first),
		reply:     h.end.Sub(last),
	}
	p.ordered = p.wait >= 0 && p.transport >= 0 && p.queue >= 0 && p.reply >= 0
	return p, true
}

// runsByRequest indexes the svc batch spans by the client requests they
// carried.
func (t *tracer) runsByRequest() map[int32][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int32][]span)
	for _, b := range t.batches {
		if b.role != roleSvc {
			continue
		}
		for _, r := range b.reqs {
			out[r] = append(out[r], b.span)
		}
	}
	return out
}

// handler returns the client-facing handler span of request id.
func (t *tracer) handler(id int32) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.handlers[id]
	return h, ok
}

// snapshot copies the batch spans and leaf handler spans.
func (t *tracer) snapshot() ([]batchSpan, map[int64]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lh := make(map[int64]span, len(t.leafHandlers))
	for k, v := range t.leafHandlers {
		lh[k] = v
	}
	return append([]batchSpan(nil), t.batches...), lh, t.collisions
}
