// Package faultinject is a composable fault injector for HTTP paths: an
// http.RoundTripper wrapper (client side), an http.Handler middleware and a
// net.Listener wrapper (server side) that inject latency, jitter,
// connection resets, truncated bodies, synthesized 5xx bursts and
// blackholes by rule. Rules select traffic per path prefix and per host,
// fire with a probability, and can be bounded to a duration or a count —
// the building blocks of the chaos suite that drives the signing fleet's
// resilience claims (ejection, half-open recovery, failover, drain) against
// real partial failures instead of ad-hoc stubs.
//
// Everything is plain build-tag-free library code: tests arm rules through
// the API, and herosign-serve's -chaos dev flag parses the same rules from
// a flag string (see ParseRules).
package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Mode selects what an armed rule does to a matched request.
type Mode string

const (
	// ModeLatency delays the request by Latency ± Jitter before letting it
	// through.
	ModeLatency Mode = "latency"
	// ModeReset fails the exchange like a peer that closed the connection:
	// the client sees a *net.OpError wrapping ECONNRESET (a retryable hard
	// transport failure), the middleware aborts the response mid-write.
	ModeReset Mode = "reset"
	// ModeStatus answers with an synthesized HTTP status (Status, default
	// 503) without reaching the wrapped handler/transport.
	ModeStatus Mode = "status"
	// ModeTruncate lets the exchange run but cuts the response body short,
	// so the reader hits an unexpected EOF mid-decode.
	ModeTruncate Mode = "truncate"
	// ModeBlackhole swallows the request until its context is done — the
	// timeout-shaped failure (no RST, no response, nothing).
	ModeBlackhole Mode = "blackhole"
)

// Rule is one fault: where it applies, how likely it fires, what it does,
// and for how long it stays armed.
type Rule struct {
	// Name labels the rule in counters (default: the mode).
	Name string
	// PathPrefix selects request paths ("" = every path).
	PathPrefix string
	// Host selects the target host[:port] ("" = every host). Client-side
	// only: the middleware/listener sit on one host already.
	Host string
	// Probability in [0,1] is the chance a matched request is faulted
	// (0 means 1.0 — an unset probability always fires).
	Probability float64
	// Mode selects the fault (default ModeLatency).
	Mode Mode
	// Latency / Jitter shape ModeLatency: delay = Latency + U(0,Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// Status is the synthesized response code for ModeStatus (default 503).
	Status int
	// TruncateBytes bounds the surviving body prefix for ModeTruncate
	// (default: half the body).
	TruncateBytes int
	// Duration disarms the rule this long after arming (0 = until
	// disarmed).
	Duration time.Duration
	// MaxHits disarms the rule after it fired this many times (0 =
	// unlimited).
	MaxHits int64
}

// rule is an armed Rule plus its bookkeeping.
type rule struct {
	Rule
	armedAt time.Time
	hits    atomic.Int64
	off     atomic.Bool
}

func (r *rule) label() string {
	if r.Name != "" {
		return r.Name
	}
	return string(r.Mode)
}

// expired reports whether the rule's arming window or hit budget ran out.
func (r *rule) expired(now time.Time) bool {
	if r.off.Load() {
		return true
	}
	if r.Duration > 0 && now.After(r.armedAt.Add(r.Duration)) {
		return true
	}
	if r.MaxHits > 0 && r.hits.Load() >= r.MaxHits {
		return true
	}
	return false
}

// Injector holds the armed rule set and the fault counters. The zero value
// is ready to use and injects nothing until a rule is armed.
type Injector struct {
	mu    sync.Mutex
	rules []*rule
	rng   *rand.Rand

	counts sync.Map // label -> *atomic.Int64
}

// New returns an empty injector.
func New() *Injector { return &Injector{} }

// Arm installs r and returns a disarm func. Arming is cheap and
// concurrency-safe, so tests flip faults on and off mid-flight.
func (in *Injector) Arm(r Rule) (disarm func()) {
	if r.Mode == "" {
		r.Mode = ModeLatency
	}
	if r.Mode == ModeStatus && r.Status == 0 {
		r.Status = http.StatusServiceUnavailable
	}
	ar := &rule{Rule: r, armedAt: time.Now()}
	in.mu.Lock()
	in.rules = append(in.rules, ar)
	in.mu.Unlock()
	return func() { ar.off.Store(true) }
}

// Reset disarms every rule.
func (in *Injector) Reset() {
	in.mu.Lock()
	for _, r := range in.rules {
		r.off.Store(true)
	}
	in.rules = nil
	in.mu.Unlock()
}

// Hits reports how many faults the named rule injected (rules default
// their name to the mode string).
func (in *Injector) Hits(name string) int64 {
	if c, ok := in.counts.Load(name); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}

// TotalHits sums every rule's injected-fault count.
func (in *Injector) TotalHits() int64 {
	var n int64
	in.counts.Range(func(_, v any) bool {
		n += v.(*atomic.Int64).Load()
		return true
	})
	return n
}

func (in *Injector) count(label string) {
	c, _ := in.counts.LoadOrStore(label, new(atomic.Int64))
	c.(*atomic.Int64).Add(1)
}

// match returns the first armed rule selecting (host, path) whose
// probability fires, pruning expired rules as a side effect.
func (in *Injector) match(host, path string) *rule {
	now := time.Now()
	in.mu.Lock()
	defer in.mu.Unlock()
	live := in.rules[:0]
	var hit *rule
	for _, r := range in.rules {
		if r.expired(now) {
			continue
		}
		live = append(live, r)
		if hit != nil {
			continue
		}
		if r.Host != "" && r.Host != host {
			continue
		}
		if r.PathPrefix != "" && !strings.HasPrefix(path, r.PathPrefix) {
			continue
		}
		p := r.Probability
		if p <= 0 {
			p = 1
		}
		if p < 1 {
			if in.rng == nil {
				in.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
			}
			if in.rng.Float64() >= p {
				continue
			}
		}
		hit = r
	}
	in.rules = live
	if hit != nil {
		hit.hits.Add(1)
		in.count(hit.label())
	}
	return hit
}

// resetErr fabricates the error a real peer RST produces: a *net.OpError
// wrapping ECONNRESET, which errors.Is-matches syscall.ECONNRESET the way
// transport-level retry classifiers expect.
func resetErr(host string) error {
	return &net.OpError{Op: "read", Net: "tcp",
		Addr: fakeAddr(host), Err: syscall.ECONNRESET}
}

type fakeAddr string

func (a fakeAddr) Network() string { return "tcp" }
func (a fakeAddr) String() string  { return string(a) }

// sleep waits d (plus rule jitter) or until ctx is done.
func sleepRule(ctx context.Context, r *rule, rng func() float64) {
	d := r.Latency
	if r.Jitter > 0 {
		d += time.Duration(rng() * float64(r.Jitter))
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// RoundTripper wraps next with the injector's client-side faults. A nil
// next uses http.DefaultTransport.
func (in *Injector) RoundTripper(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &roundTripper{in: in, next: next}
}

type roundTripper struct {
	in   *Injector
	next http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	r := rt.in.match(req.URL.Host, req.URL.Path)
	if r == nil {
		return rt.next.RoundTrip(req)
	}
	ctx := req.Context()
	switch r.Mode {
	case ModeLatency:
		sleepRule(ctx, r, rand.Float64)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return rt.next.RoundTrip(req)
	case ModeReset:
		// Drain and close the body like a transport that died mid-exchange,
		// so callers' body lifecycles stay balanced.
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			_ = req.Body.Close()
		}
		return nil, resetErr(req.URL.Host)
	case ModeStatus:
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			_ = req.Body.Close()
		}
		return &http.Response{
			StatusCode: r.Status,
			Status:     fmt.Sprintf("%d %s", r.Status, http.StatusText(r.Status)),
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:        http.Header{"Content-Type": []string{"text/plain"}},
			Body:          io.NopCloser(strings.NewReader(http.StatusText(r.Status) + " (injected)")),
			ContentLength: -1,
			Request:       req,
		}, nil
	case ModeTruncate:
		resp, err := rt.next.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body = truncateBody(resp.Body, r.TruncateBytes, req.URL.Host)
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	case ModeBlackhole:
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			_ = req.Body.Close()
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return rt.next.RoundTrip(req)
}

// truncateBody yields at most limit bytes of body (half of what's read
// when limit is 0) and then fails with a connection-reset read error, like
// a peer that died mid-response.
func truncateBody(body io.ReadCloser, limit int, host string) io.ReadCloser {
	if limit <= 0 {
		// Read it all to learn the size, keep half.
		all, err := io.ReadAll(body)
		_ = body.Close()
		if err != nil {
			return io.NopCloser(bytes.NewReader(all))
		}
		limit = len(all) / 2
		return &truncatedReader{r: bytes.NewReader(all[:limit]), host: host}
	}
	return &truncatedReader{r: io.LimitReader(body, int64(limit)), c: body, host: host}
}

type truncatedReader struct {
	r    io.Reader
	c    io.Closer
	host string
}

func (t *truncatedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == io.EOF {
		err = resetErr(t.host)
	}
	return n, err
}

func (t *truncatedReader) Close() error {
	if t.c != nil {
		return t.c.Close()
	}
	return nil
}

// Middleware wraps next with the injector's server-side faults, for
// composing into a leaf's mux (the -chaos dev flag).
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r := in.match(req.Host, req.URL.Path)
		if r == nil {
			next.ServeHTTP(w, req)
			return
		}
		ctx := req.Context()
		switch r.Mode {
		case ModeLatency:
			sleepRule(ctx, r, rand.Float64)
			if ctx.Err() != nil {
				return
			}
			next.ServeHTTP(w, req)
		case ModeReset:
			// Panic with ErrAbortHandler: net/http closes the connection
			// without a response — the client observes EOF/RST.
			panic(http.ErrAbortHandler)
		case ModeStatus:
			http.Error(w, http.StatusText(r.Status)+" (injected)", r.Status)
		case ModeTruncate:
			rec := &truncatingWriter{w: w, limit: r.TruncateBytes}
			next.ServeHTTP(rec, req)
			panic(http.ErrAbortHandler) // cut the connection before the body completes
		case ModeBlackhole:
			<-ctx.Done()
		default:
			next.ServeHTTP(w, req)
		}
	})
}

// truncatingWriter forwards at most limit body bytes (0 = half of each
// write) and drops the rest.
type truncatingWriter struct {
	w       http.ResponseWriter
	limit   int
	written int
}

func (t *truncatingWriter) Header() http.Header { return t.w.Header() }

func (t *truncatingWriter) WriteHeader(code int) {
	t.w.Header().Del("Content-Length")
	t.w.WriteHeader(code)
}

func (t *truncatingWriter) Write(p []byte) (int, error) {
	limit := t.limit
	if limit <= 0 {
		limit = t.written + len(p)/2
	}
	keep := limit - t.written
	if keep < 0 {
		keep = 0
	}
	if keep > len(p) {
		keep = len(p)
	}
	if keep > 0 {
		if _, err := t.w.Write(p[:keep]); err != nil {
			return 0, err
		}
		t.written += keep
	}
	// Claim full success so the handler keeps its invariants; the missing
	// tail is the injected fault.
	return len(p), nil
}

// Listener wraps l so accepted connections are subject to the injector's
// connection-level faults: a ModeReset rule with PathPrefix "" kills
// accepted connections immediately, a ModeLatency rule delays the first
// byte. HTTP-aware faults (status, truncate, per-path selection) belong in
// Middleware — a listener cannot see paths.
func (in *Injector) Listener(l net.Listener) net.Listener {
	return &listener{Listener: l, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if r := l.in.match("", ""); r != nil {
		switch r.Mode {
		case ModeReset:
			// SO_LINGER 0 turns Close into an RST instead of FIN.
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
			_ = c.Close()
			return l.Accept()
		case ModeLatency:
			return &delayedConn{Conn: c, delay: r.Latency, jitter: r.Jitter}, nil
		case ModeBlackhole:
			return &blackholeConn{Conn: c}, nil
		}
	}
	return c, nil
}

// delayedConn defers the first read — connection-level latency.
type delayedConn struct {
	net.Conn
	delay  time.Duration
	jitter time.Duration
	once   sync.Once
}

func (c *delayedConn) Read(p []byte) (int, error) {
	c.once.Do(func() {
		d := c.delay
		if c.jitter > 0 {
			d += time.Duration(rand.Float64() * float64(c.jitter))
		}
		time.Sleep(d)
	})
	return c.Conn.Read(p)
}

// blackholeConn reads requests but never writes a response byte.
type blackholeConn struct{ net.Conn }

func (c *blackholeConn) Write(p []byte) (int, error) {
	// Swallow writes; keep the connection open so the peer waits.
	return len(p), nil
}

// ParseRules parses the -chaos flag syntax: comma-separated rules, each a
// semicolon-separated k=v list.
//
//	mode=latency;path=/v1/sign;latency=200ms;jitter=50ms;p=0.3
//	mode=reset;path=/v1/;p=0.1,mode=status;status=503;max=20
//
// Keys: mode, path, host, p (probability), latency, jitter, status, trunc
// (bytes), for (duration), max (hits), name.
func ParseRules(s string) ([]Rule, error) {
	var rules []Rule
	for _, rs := range strings.Split(s, ",") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		var r Rule
		for _, kv := range strings.Split(rs, ";") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: bad rule element %q (want k=v)", kv)
			}
			var err error
			switch k {
			case "mode":
				switch Mode(v) {
				case ModeLatency, ModeReset, ModeStatus, ModeTruncate, ModeBlackhole:
					r.Mode = Mode(v)
				default:
					err = fmt.Errorf("unknown mode %q", v)
				}
			case "path":
				r.PathPrefix = v
			case "host":
				r.Host = v
			case "name":
				r.Name = v
			case "p":
				r.Probability, err = strconv.ParseFloat(v, 64)
				if err == nil && (r.Probability < 0 || r.Probability > 1) {
					err = fmt.Errorf("probability %v outside [0,1]", r.Probability)
				}
			case "latency":
				r.Latency, err = time.ParseDuration(v)
			case "jitter":
				r.Jitter, err = time.ParseDuration(v)
			case "status":
				r.Status, err = strconv.Atoi(v)
			case "trunc":
				r.TruncateBytes, err = strconv.Atoi(v)
			case "for":
				r.Duration, err = time.ParseDuration(v)
			case "max":
				var n int
				n, err = strconv.Atoi(v)
				r.MaxHits = int64(n)
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: %w", rs, err)
			}
		}
		if r.Mode == "" {
			return nil, fmt.Errorf("faultinject: rule %q needs mode=", rs)
		}
		rules = append(rules, r)
	}
	return rules, nil
}
