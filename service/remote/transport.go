package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"herosign/service"
)

// Wire mirrors of the leaf's JSON types. The JSON field names are the
// contract (service keeps its own structs unexported); []byte travels as
// base64 per encoding/json.
type signBatchReq struct {
	Messages [][]byte `json:"messages"`
	KeyID    string   `json:"key_id,omitempty"`
	// DeadlinesMs / Tenants forward the front end's per-message scheduling
	// metadata (remaining deadline in ms, tenant API key) so the leaf's EDF
	// ordering and per-tenant accounting see the same attributes the front
	// end admitted the work under.
	DeadlinesMs []int64  `json:"deadlines_ms,omitempty"`
	Tenants     []string `json:"tenants,omitempty"`
}

// schedMeta carries a proxied batch's per-message scheduling metadata
// (from service.Job) to the wire encoders. Failover resends reuse
// the same snapshot: the remaining-deadline values were taken at dispatch,
// which slightly overstates the remaining time on a late resend — the leaf
// still drops truly expired work itself.
type schedMeta struct {
	deadlinesMs []int64
	tenants     []string
}

type signBatchResp struct {
	KeyID      string   `json:"key_id"`
	Signatures [][]byte `json:"signatures"`
}

type verifyBatchReq struct {
	Messages   [][]byte `json:"messages"`
	Signatures [][]byte `json:"signatures"`
	KeyID      string   `json:"key_id,omitempty"`
	// Scheduling forwarding with signBatchReq semantics.
	DeadlinesMs []int64  `json:"deadlines_ms,omitempty"`
	Tenants     []string `json:"tenants,omitempty"`
}

type verifyBatchResp struct {
	Valid []bool `json:"valid"`
}

type seedTripleWire struct {
	SKSeed []byte `json:"sk_seed"`
	SKPRF  []byte `json:"sk_prf"`
	PKSeed []byte `json:"pk_seed"`
}

type keygenReq struct {
	Seeds []seedTripleWire `json:"seeds"`
}

type keygenResp struct {
	Keys []struct {
		PublicKey  []byte `json:"public_key"`
		PrivateKey []byte `json:"private_key"`
	} `json:"keys"`
}

type keysResp struct {
	Params string `json:"params"`
	Keys   []struct {
		KeyID     string `json:"key_id"`
		Shard     int    `json:"shard"`
		PublicKey []byte `json:"public_key"`
	} `json:"keys"`
}

type errResp struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms"`
}

// StatusError is a non-429 HTTP error a leaf returned. 5xx are retryable
// on a sibling; 4xx indicate a front-end bug (malformed proxy request) and
// propagate as-is.
type StatusError struct {
	URL    string
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("remote: leaf %s returned %d: %s", e.URL, e.Status, e.Msg)
}

// TransportError is a hard transport failure (connection refused, reset,
// timeout): the strongest ejection signal and always worth a failover.
type TransportError struct {
	URL string
	Err error
}

func (e *TransportError) Error() string { return fmt.Sprintf("remote: leaf %s: %v", e.URL, e.Err) }
func (e *TransportError) Unwrap() error { return e.Err }

// hardFailure reports whether the error should count toward ejection:
// transport failures and 5xx. An overloaded leaf is healthy, just full.
func hardFailure(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return false
}

// transport is the fleet's pooled HTTP client. When Options.Secret is set
// it signs every outgoing request — proxy calls, probes, key-catalog
// fetches and membership traffic — with the fleet auth header.
type transport struct {
	client *http.Client
	auth   *service.FleetAuth
	inner  *http.Transport
}

func newTransport(o Options) *transport {
	inner := &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
		TLSClientConfig:     o.TLSConfig,
	}
	var rt http.RoundTripper = inner
	if o.WrapTransport != nil {
		rt = o.WrapTransport(rt)
	}
	t := &transport{client: &http.Client{
		Transport: rt,
		// Per-attempt deadlines come from the caller's context; the client
		// itself stays unbounded so probe and batch timeouts can differ.
	}, inner: inner}
	if o.Secret != "" {
		t.auth = service.NewFleetAuth(o.Secret)
	}
	return t
}

// do signs (when fleet auth is armed) and sends one request.
func (t *transport) do(req *http.Request) (*http.Response, error) {
	if t.auth != nil {
		t.auth.Sign(req)
	}
	return t.client.Do(req)
}

func (t *transport) close() { t.inner.CloseIdleConnections() }

// postJSON round-trips one JSON request. A leaf 429 comes back as
// *service.OverloadError carrying the leaf's own retry_after_ms estimate,
// so the front end surfaces the leaf's drain time instead of recomputing
// one from its own (empty) queue.
func (t *transport) postJSON(ctx context.Context, base, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("remote: encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("remote: build %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.do(req)
	if err != nil {
		return &TransportError{URL: base, Err: err}
	}
	return decodeResp(base, resp, out)
}

func (t *transport) getJSON(ctx context.Context, base, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return fmt.Errorf("remote: build %s: %w", path, err)
	}
	resp, err := t.do(req)
	if err != nil {
		return &TransportError{URL: base, Err: err}
	}
	return decodeResp(base, resp, out)
}

func decodeResp(base string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return &TransportError{URL: base, Err: err}
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		var er errResp
		retry := 50 * time.Millisecond
		if json.Unmarshal(raw, &er) == nil && er.RetryAfterMs > 0 {
			retry = time.Duration(er.RetryAfterMs) * time.Millisecond
		}
		return &service.OverloadError{Scope: "leaf", RetryAfter: retry}
	}
	if resp.StatusCode != http.StatusOK {
		var er errResp
		msg := http.StatusText(resp.StatusCode)
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return &StatusError{URL: base, Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return &TransportError{URL: base, Err: fmt.Errorf("decode response: %w", err)}
	}
	return nil
}

func (t *transport) signBatch(ctx context.Context, base, keyID string, msgs [][]byte, sched schedMeta) ([][]byte, error) {
	var out signBatchResp
	req := signBatchReq{Messages: msgs, KeyID: keyID, DeadlinesMs: sched.deadlinesMs, Tenants: sched.tenants}
	if err := t.postJSON(ctx, base, "/v1/sign/batch", req, &out); err != nil {
		return nil, err
	}
	if len(out.Signatures) != len(msgs) {
		return nil, &StatusError{URL: base, Status: http.StatusOK,
			Msg: fmt.Sprintf("sign batch returned %d signatures for %d messages", len(out.Signatures), len(msgs))}
	}
	return out.Signatures, nil
}

func (t *transport) verifyBatch(ctx context.Context, base, keyID string, msgs, sigs [][]byte, sched schedMeta) ([]bool, error) {
	var out verifyBatchResp
	req := verifyBatchReq{Messages: msgs, Signatures: sigs, KeyID: keyID,
		DeadlinesMs: sched.deadlinesMs, Tenants: sched.tenants}
	if err := t.postJSON(ctx, base, "/v1/verify/batch", req, &out); err != nil {
		return nil, err
	}
	if len(out.Valid) != len(msgs) {
		return nil, &StatusError{URL: base, Status: http.StatusOK,
			Msg: fmt.Sprintf("verify batch returned %d verdicts for %d pairs", len(out.Valid), len(msgs))}
	}
	return out.Valid, nil
}

func (t *transport) keygen(ctx context.Context, base string, seeds []service.SeedTriple) ([][]byte, error) {
	req := keygenReq{Seeds: make([]seedTripleWire, len(seeds))}
	for i, s := range seeds {
		req.Seeds[i] = seedTripleWire{SKSeed: s.SKSeed, SKPRF: s.SKPRF, PKSeed: s.PKSeed}
	}
	var out keygenResp
	if err := t.postJSON(ctx, base, "/v1/keygen", req, &out); err != nil {
		return nil, err
	}
	if len(out.Keys) != len(seeds) {
		return nil, &StatusError{URL: base, Status: http.StatusOK,
			Msg: fmt.Sprintf("keygen returned %d keys for %d seeds", len(out.Keys), len(seeds))}
	}
	keys := make([][]byte, len(out.Keys))
	for i, k := range out.Keys {
		keys[i] = k.PrivateKey
	}
	return keys, nil
}

func (t *transport) stats(ctx context.Context, base string) (*service.Stats, error) {
	var st service.Stats
	if err := t.getJSON(ctx, base, "/v1/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (t *transport) keys(ctx context.Context, base string) (*keysResp, error) {
	var kr keysResp
	if err := t.getJSON(ctx, base, "/v1/keys", &kr); err != nil {
		return nil, err
	}
	return &kr, nil
}
