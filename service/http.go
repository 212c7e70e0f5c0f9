package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"herosign/internal/core"
)

// MaxBodyBytes caps request bodies on the HTTP front end; larger bodies get
// 413. Generous for any sane sign/verify payload (a 256f signature is
// ~50 KB base64) while bounding memory per connection.
const MaxBodyBytes = 1 << 20

// Scheduling headers. X-Request-Deadline carries the client's completion
// deadline as relative milliseconds (clock-skew safe across hosts) and
// overrides the body's deadline_ms; X-API-Key names the tenant the work is
// charged to (absent = the default tenant).
const (
	DeadlineHeader = "X-Request-Deadline"
	TenantHeader   = "X-API-Key"
)

// JSON wire types. []byte fields travel as standard base64 strings.
type signRequest struct {
	Message []byte `json:"message"`
	KeyID   string `json:"key_id,omitempty"` // "" routes to the least-loaded shard
	// DeadlineMs is the client deadline in relative milliseconds (0 = none);
	// the X-Request-Deadline header overrides it.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

type signResponse struct {
	Signature []byte `json:"signature"`
	KeyID     string `json:"key_id"` // key domain that signed; verify against its key
	Shard     int    `json:"shard"`
	Batch     int    `json:"batch"`  // coalesced batch size the request rode in
	Device    string `json:"device"` // backend that executed it
}

type signBatchRequest struct {
	Messages [][]byte `json:"messages"`
	KeyID    string   `json:"key_id,omitempty"`
	// DeadlineMs applies one relative deadline to every member (header
	// overrides); DeadlinesMs, when present, is parallel to Messages with a
	// per-member relative deadline (0 falls back to the scalar). Tenants,
	// parallel likewise, names each member's tenant ("" falls back to
	// X-API-Key) — the fields a proxying front end forwards so a leaf sees
	// the same urgency and accounting it did.
	DeadlineMs  int64    `json:"deadline_ms,omitempty"`
	DeadlinesMs []int64  `json:"deadlines_ms,omitempty"`
	Tenants     []string `json:"tenants,omitempty"`
}

type signBatchResponse struct {
	KeyID      string   `json:"key_id"`
	Signatures [][]byte `json:"signatures"`
}

type verifyRequest struct {
	Message   []byte `json:"message"`
	Signature []byte `json:"signature"`
	KeyID     string `json:"key_id,omitempty"` // "" checks every shard's key
	// DeadlineMs is the client deadline in relative milliseconds (0 = none);
	// the X-Request-Deadline header overrides it.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

type verifyResponse struct {
	Valid  bool   `json:"valid"`
	KeyID  string `json:"key_id"`
	Batch  int    `json:"batch"`
	Device string `json:"device"`
}

type verifyBatchRequest struct {
	Messages   [][]byte `json:"messages"`
	Signatures [][]byte `json:"signatures"` // parallel to Messages
	KeyID      string   `json:"key_id,omitempty"`
	// Scheduling fields with signBatchRequest semantics.
	DeadlineMs  int64    `json:"deadline_ms,omitempty"`
	DeadlinesMs []int64  `json:"deadlines_ms,omitempty"`
	Tenants     []string `json:"tenants,omitempty"`
}

type verifyBatchResponse struct {
	KeyID string `json:"key_id"`
	Valid []bool `json:"valid"` // parallel to the request pairs
}

// seedTriple is the wire form of core.SeedTriple for deterministic remote
// key generation; each component is Params.N bytes.
type seedTriple struct {
	SKSeed []byte `json:"sk_seed"`
	SKPRF  []byte `json:"sk_prf"`
	PKSeed []byte `json:"pk_seed"`
}

type keygenRequest struct {
	Count int `json:"count"` // default 1, capped at 256 per call
	// Seeds, when present, derives one key per triple instead of Count
	// random keys — the deterministic path remote front ends proxy through.
	Seeds []seedTriple `json:"seeds,omitempty"`
	// DeadlineMs is the client deadline in relative milliseconds applied to
	// every derived key (0 = none); the header overrides it.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

type keygenKey struct {
	PublicKey  []byte `json:"public_key"`
	PrivateKey []byte `json:"private_key"`
}

type keygenResponse struct {
	Params string      `json:"params"`
	Keys   []keygenKey `json:"keys"`
}

type keyInfo struct {
	KeyID     string `json:"key_id"`
	Shard     int    `json:"shard"`
	PublicKey []byte `json:"public_key"`
}

type keysResponse struct {
	Params string    `json:"params"`
	Keys   []keyInfo `json:"keys"`
}

// errorResponse is the JSON error shape. RetryAfterMs is set on 429s and
// mirrors the Retry-After header at millisecond resolution.
type errorResponse struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// Handler returns the HTTP/JSON front end:
//
//	POST /v1/sign        {"message": b64, "key_id"?: id}  -> {"signature": b64, "key_id": id, ...}
//	POST /v1/sign/batch  {"messages": [b64...], "key_id"?: id} -> {"signatures": [...], "key_id": id}
//	POST /v1/verify      {"message": b64, "signature": b64, "key_id"?: id} -> {"valid": bool, ...}
//	POST /v1/verify/batch {"messages": [...], "signatures": [...], "key_id"?: id} -> {"valid": [bool...]}
//	POST /v1/keygen      {"count": n} or {"seeds": [{sk_seed,sk_prf,pk_seed}...]} -> {"keys": [...]}
//	GET  /v1/keys                                         -> shard key catalog
//	GET  /v1/stats                                        -> Stats
//
// Each request is submitted through the coalescer, so concurrent HTTP
// clients are batched together onto the fleet. Overload rejections return
// 429 with a Retry-After header; request bodies are capped at MaxBodyBytes
// (413 beyond).
//
// Every submitting endpoint additionally honors two scheduling inputs: the
// X-Request-Deadline header (relative milliseconds, overriding the body's
// deadline_ms) sets a client deadline — work that cannot meet it is
// pre-rejected (429 with retry_after_ms), an expired deadline returns 504 —
// and X-API-Key names the tenant the work is charged to (per-tenant token
// buckets when -tenant-rate is configured; per-tenant counters in
// /v1/stats always). Batch endpoints also accept per-member deadlines_ms
// and tenants arrays, the fields a proxying front end forwards.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sign", s.handleSign)
	mux.HandleFunc("POST /v1/sign/batch", s.handleSignBatch)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/verify/batch", s.handleVerifyBatch)
	mux.HandleFunc("POST /v1/keygen", s.handleKeyGen)
	mux.HandleFunc("GET /v1/keys", s.handleKeys)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	var h http.Handler = mux
	if s.auth != nil {
		// Leaf posture (WithFleetSecret): every endpoint — proxy calls,
		// health probes, key-domain verification — requires the fleet
		// authenticator; anything else is 401.
		h = s.auth.Middleware(h)
	}
	return http.MaxBytesHandler(h, MaxBodyBytes)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	var over *OverloadError
	if errors.As(err, &over) {
		// Retry-After is whole seconds by spec; the JSON body carries the
		// finer-grained estimate.
		secs := int64((over.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error: err.Error(), RetryAfterMs: over.RetryAfter.Milliseconds(),
		})
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrClosed), errors.Is(err, ErrNoBackends):
		// ErrNoBackends: a dynamic fleet with no routable member — retrying
		// helps only once a leaf joins, so 503 rather than 429.
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownKey):
		status = http.StatusNotFound
	case errors.Is(err, ErrDeadlineExceeded):
		// The client's own deadline expired before the work could run (or
		// was already expired on arrival); unlike a 429 there is no point
		// retrying with the same deadline.
		status = http.StatusGatewayTimeout
	case errors.Is(err, ErrEmptyMessage), errors.Is(err, ErrSignatureLength),
		errors.Is(err, ErrSeedLength), errors.Is(err, ErrBatchTooLarge):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxDeadlineMs caps relative deadlines so converting one to a
// time.Duration cannot overflow into the past (~292 years).
const maxDeadlineMs = int64(math.MaxInt64 / time.Millisecond)

// schedItems is the scheduling parser every submitting endpoint shares: it
// expands a request's scheduling input into n Items, leaving Msg, Sig and
// Seed to the caller. The tenant comes from X-API-Key, overridden per member
// by a non-empty tenants[i]; the deadline (relative milliseconds) from the
// X-Request-Deadline header, else the body's deadline_ms, overridden per
// member by a non-zero deadlines_ms[i]. Scalar endpoints pass n = 1 and nil
// arrays. It reports false after writing a 400 for a malformed or
// non-positive header, a negative deadline, or arrays not parallel to the
// batch.
func schedItems(w http.ResponseWriter, r *http.Request, n int, deadlineMs int64, deadlinesMs []int64, tenants []string) ([]Item, bool) {
	bad := func(format string, args ...any) ([]Item, bool) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf(format, args...)})
		return nil, false
	}
	if deadlineMs < 0 {
		return bad("bad deadline_ms %d: want milliseconds > 0 (omit for none)", deadlineMs)
	}
	if h := r.Header.Get(DeadlineHeader); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v <= 0 {
			return bad("bad %s %q: want an integer of milliseconds > 0", DeadlineHeader, h)
		}
		deadlineMs = v
	}
	if len(deadlinesMs) > 0 && len(deadlinesMs) != n {
		return bad("deadlines_ms must be parallel to the batch: %d entries for %d members", len(deadlinesMs), n)
	}
	if len(tenants) > 0 && len(tenants) != n {
		return bad("tenants must be parallel to the batch: %d entries for %d members", len(tenants), n)
	}
	now := time.Now()
	after := func(ms int64) time.Time {
		if ms == 0 {
			return time.Time{}
		}
		return now.Add(time.Duration(min(ms, maxDeadlineMs)) * time.Millisecond)
	}
	tenant := r.Header.Get(TenantHeader)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Deadline: after(deadlineMs), Tenant: tenant}
		if len(deadlinesMs) > 0 {
			switch ms := deadlinesMs[i]; {
			case ms < 0:
				return bad("bad deadlines_ms[%d] %d: want milliseconds > 0 (0 falls back to deadline_ms)", i, ms)
			case ms > 0:
				items[i].Deadline = after(ms)
			}
		}
		if len(tenants) > 0 && tenants[i] != "" {
			items[i].Tenant = tenants[i]
		}
	}
	return items, true
}

// decodeJSON decodes the request body, distinguishing oversized bodies
// (413) from malformed ones (400). It reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("body exceeds the %d-byte cap", tooLarge.Limit)})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return false
	}
	return true
}

func (s *Service) handleSign(w http.ResponseWriter, r *http.Request) {
	var req signRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	items, ok := schedItems(w, r, 1, req.DeadlineMs, nil, nil)
	if !ok {
		return
	}
	items[0].Msg = req.Message
	res, err := s.submitWait(r.Context(), Request{Kind: KindSign, KeyID: req.KeyID, Items: items})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, signResponse{
		Signature: res[0].Sig, KeyID: res[0].KeyID, Shard: res[0].Shard, Batch: res[0].Batch, Device: res[0].Dev,
	})
}

// handleSignBatch signs a set of messages under one key domain in a single
// round trip, admitted through Submit: several messages are all-or-nothing
// (a 429 means none was admitted and no signing work was spent, so a retry
// after Retry-After is cheap) and pinned against drop-oldest-deadline
// shedding; a batch that cannot fit the admission caps at all is a 400
// (split it), not a retryable 429. A one-message batch gets Submit's
// single-item admission.
func (s *Service) handleSignBatch(w http.ResponseWriter, r *http.Request) {
	var req signBatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Messages) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch: no messages"})
		return
	}
	if len(req.Messages) > 256 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "batch exceeds the 256-message cap"})
		return
	}
	for i, m := range req.Messages {
		if len(m) == 0 {
			// Reject up front: one empty member admitted into the batch
			// would fail alone only after its batch-mates were signed.
			writeJSON(w, http.StatusBadRequest,
				errorResponse{Error: fmt.Sprintf("empty message at index %d", i)})
			return
		}
	}
	items, ok := schedItems(w, r, len(req.Messages), req.DeadlineMs, req.DeadlinesMs, req.Tenants)
	if !ok {
		return
	}
	for i, m := range req.Messages {
		items[i].Msg = m
	}
	keyID := req.KeyID
	if keyID == "" {
		// Name the routed shard so the response can report the key.
		keyID = s.router.route().keyID
	}
	res, err := s.submitWait(r.Context(), Request{Kind: KindSign, KeyID: keyID, Items: items})
	if err != nil {
		writeError(w, err)
		return
	}
	resp := signBatchResponse{KeyID: keyID, Signatures: make([][]byte, len(res))}
	for i := range res {
		resp.Signatures[i] = res[i].Sig
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verifyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	items, ok := schedItems(w, r, 1, req.DeadlineMs, nil, nil)
	if !ok {
		return
	}
	items[0].Msg, items[0].Sig = req.Message, req.Signature
	res, err := s.submitWait(r.Context(), Request{Kind: KindVerify, KeyID: req.KeyID, Items: items})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, verifyResponse{
		Valid: res[0].Valid, KeyID: res[0].KeyID, Batch: res[0].Batch, Device: res[0].Dev,
	})
}

// handleVerifyBatch checks a set of (message, signature) pairs in a single
// round trip — the wire path remote front ends proxy coalesced verify
// batches through — with Submit's admission (all-or-nothing for several
// pairs against one key domain). A pair whose signature has the wrong
// length for the parameter set is reported invalid (not an error);
// shutdown maps to 503 for the whole batch. With no key domain named on a
// multi-shard service, each pair is checked against every shard's key.
func (s *Service) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	var req verifyBatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Messages) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch: no messages"})
		return
	}
	if len(req.Messages) != len(req.Signatures) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf(
			"messages and signatures must be parallel: %d vs %d", len(req.Messages), len(req.Signatures))})
		return
	}
	if len(req.Messages) > 256 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "batch exceeds the 256-pair cap"})
		return
	}
	items, ok := schedItems(w, r, len(req.Messages), req.DeadlineMs, req.DeadlinesMs, req.Tenants)
	if !ok {
		return
	}
	for i := range items {
		items[i].Msg, items[i].Sig = req.Messages[i], req.Signatures[i]
	}
	keyID := req.KeyID
	if keyID == "" && len(s.router.shards) == 1 {
		keyID = s.router.shards[0].keyID
	}
	futs, err := s.Submit(r.Context(), Request{Kind: KindVerify, KeyID: keyID, Items: items})
	if err != nil {
		writeError(w, err)
		return
	}
	resp := verifyBatchResponse{KeyID: keyID, Valid: make([]bool, len(futs))}
	for i, fut := range futs {
		res, err := fut.Wait(r.Context())
		switch {
		case err == nil:
			resp.Valid[i] = res.Valid
		case !errors.Is(err, ErrSignatureLength):
			writeError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleKeyGen derives Count random keys, or one key per seed triple, with
// Submit's admission: several keys are admitted all-or-nothing.
func (s *Service) handleKeyGen(w http.ResponseWriter, r *http.Request) {
	var req keygenRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Seeds) > 256 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "seeds exceed the 256-key cap"})
		return
	}
	if req.Count > 256 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "count exceeds the 256-key cap"})
		return
	}
	n := max(req.Count, 1)
	if len(req.Seeds) > 0 {
		n = len(req.Seeds) // deterministic path: Count ignored
	}
	items, ok := schedItems(w, r, n, req.DeadlineMs, nil, nil)
	if !ok {
		return
	}
	for i, tr := range req.Seeds {
		items[i].Seed = &core.SeedTriple{SKSeed: tr.SKSeed, SKPRF: tr.SKPRF, PKSeed: tr.PKSeed}
	}
	res, err := s.submitWait(r.Context(), Request{Kind: KindKeyGen, Items: items})
	if err != nil {
		writeError(w, err)
		return
	}
	resp := keygenResponse{Params: s.cfg.Params.Name}
	for _, res := range res {
		resp.Keys = append(resp.Keys, keygenKey{
			PublicKey:  res.Key.PublicKey.Bytes(),
			PrivateKey: res.Key.Bytes(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleKeys(w http.ResponseWriter, r *http.Request) {
	resp := keysResponse{Params: s.cfg.Params.Name}
	for _, sh := range s.Shards() {
		resp.Keys = append(resp.Keys, keyInfo{
			KeyID: sh.KeyID, Shard: sh.ID, PublicKey: sh.PublicKey.Bytes(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
