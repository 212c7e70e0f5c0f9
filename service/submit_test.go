package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"herosign/internal/core"
	"herosign/internal/spx"
)

// submitOne submits a single item of kind under keyID.
func submitOne(svc *Service, kind Kind, keyID string, it Item) (*Future, error) {
	futs, err := svc.Submit(context.Background(), Request{Kind: kind, KeyID: keyID, Items: []Item{it}})
	if err != nil {
		return nil, err
	}
	return futs[0], nil
}

// submitSign submits one message for signing on the routed shard.
func submitSign(svc *Service, msg []byte) (*Future, error) {
	return submitOne(svc, KindSign, "", Item{Msg: msg})
}

// submitBatch submits msgs (paired with sigs for verify) as one request on
// the routed shard.
func submitBatch(svc *Service, kind Kind, msgs, sigs [][]byte) ([]*Future, error) {
	return svc.Submit(context.Background(), Request{Kind: kind, Items: itemsOf(msgs, sigs)})
}

// TestSubmitRefusesGoneCaller: a context that is already done is refused
// before admission — nothing is queued or charged.
func TestSubmitRefusesGoneCaller(t *testing.T) {
	stub := &stubBackend{name: "stub", weight: 1000, cap: 64}
	svc := newStubService(t, stub, WithTenantRate(1))
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	futs, err := svc.Submit(ctx, Request{Kind: KindSign, Items: []Item{{Msg: []byte("gone"), Tenant: "gone"}}})
	if !errors.Is(err, context.Canceled) || futs != nil {
		t.Fatalf("Submit with a canceled ctx = %v, %v; want nil, context.Canceled", futs, err)
	}
	if d := svc.router.shards[0].gate.depth(); d != 0 {
		t.Fatalf("shard depth = %d after a refused submit, want 0", d)
	}
	for _, ts := range svc.Stats().Tenants {
		if ts.Tenant == "gone" {
			t.Fatalf("refused submit reached tenant accounting: %+v", ts)
		}
	}
}

// TestSubmitCopiesInputs: Submit owns copies of every buffer it is handed,
// so a caller may reuse its message and seed buffers as soon as it returns.
func TestSubmitCopiesInputs(t *testing.T) {
	svc := newTestService(t, WithMaxBatch(100), WithFlushDeadline(50*time.Millisecond))
	defer svc.Close()
	p := svc.Params()

	msg := []byte("copied before Submit returns")
	seed := core.SeedTriple{
		SKSeed: make([]byte, p.N), SKPRF: make([]byte, p.N), PKSeed: make([]byte, p.N),
	}
	wantKey, err := spx.KeyFromSeeds(p, seed.SKSeed, seed.SKPRF, seed.PKSeed)
	if err != nil {
		t.Fatal(err)
	}
	want := string(wantKey.Bytes())
	sign, err := submitOne(svc, KindSign, "", Item{Msg: msg})
	if err != nil {
		t.Fatal(err)
	}
	keygen, err := submitOne(svc, KindKeyGen, "", Item{Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	orig := string(msg)
	for _, b := range [][]byte{msg, seed.SKSeed, seed.SKPRF, seed.PKSeed} {
		for i := range b {
			b[i] ^= 0xff
		}
	}
	ctx := context.Background()
	res, err := sign.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := svc.Verify(ctx, []byte(orig), res.Sig); err != nil || !ok {
		t.Fatalf("signature over the submitted bytes does not verify: ok=%v err=%v", ok, err)
	}
	kres, err := keygen.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(kres.Key.Bytes()) != want {
		t.Fatal("keygen used the caller's buffers after Submit returned")
	}
}

// TestSubmitVerifyAnyShardPerItem: verification with no key ID on a
// multi-shard service checks every item against every shard's key, so one
// request can mix pairs signed under different domains.
func TestSubmitVerifyAnyShardPerItem(t *testing.T) {
	svc := newTestService(t, WithShards(2))
	defer svc.Close()
	ctx := context.Background()

	var msgs, sigs [][]byte
	domains := map[string]bool{}
	for _, sh := range svc.Shards() {
		msg := []byte("signed under " + sh.KeyID)
		fut, err := submitOne(svc, KindSign, sh.KeyID, Item{Msg: msg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		msgs, sigs = append(msgs, msg), append(sigs, res.Sig)
		domains[res.KeyID] = true
	}
	if len(domains) != 2 {
		t.Fatalf("signed under %d domains, want 2", len(domains))
	}
	msgs, sigs = append(msgs, []byte("tampered")), append(sigs, sigs[0])

	futs, err := submitBatch(svc, KindVerify, msgs, sigs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, true, false} {
		res, err := futs[i].Wait(ctx)
		if err != nil || res.Valid != want {
			t.Fatalf("item %d: valid=%v err=%v, want valid=%v", i, res.Valid, err, want)
		}
	}
}

// TestHTTPOneMemberBatchIsScalar: a one-member /v1/sign/batch or
// /v1/verify/batch is admitted like a single request — its deadline is
// pre-rejected against the backlog — while a two-member batch with the same
// deadline is admitted all-or-nothing without deadline pre-rejection.
func TestHTTPOneMemberBatchIsScalar(t *testing.T) {
	// 50 sigs/s behind 90 parked occupants: estimated queue wait 1.8s.
	stub := &stubBackend{name: "slow", weight: 50, cap: 64}
	svc := newStubService(t, stub)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close() // before ts.Close: draining unblocks the pending handler

	for i := 0; i < 90; i++ {
		if _, err := submitSign(svc, []byte(fmt.Sprintf("occupant-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m := []byte("m")
	for _, tc := range []struct {
		url  string
		body any
	}{
		{"/v1/sign/batch", signBatchRequest{Messages: [][]byte{m}, DeadlineMs: 100}},
		{"/v1/verify/batch", verifyBatchRequest{Messages: [][]byte{m}, Signatures: [][]byte{m}, DeadlineMs: 100}},
	} {
		resp, er := postSched(t, ts.URL+tc.url, map[string]string{TenantHeader: "one"}, tc.body)
		if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(er.Error, "deadline") {
			t.Fatalf("%s one member: status %d (%s), want a 429 deadline pre-rejection", tc.url, resp.StatusCode, er.Error)
		}
	}
	if one := findTenant(t, svc.Stats().Tenants, "one"); one.RejectedDeadline != 2 || one.Admitted != 0 {
		t.Fatalf("one-member tenant counters: %+v", one)
	}

	respCh := make(chan int, 1)
	go func() {
		resp, _ := postSched(t, ts.URL+"/v1/sign/batch", map[string]string{TenantHeader: "two"},
			signBatchRequest{Messages: [][]byte{m, m}, DeadlineMs: 100})
		respCh <- resp.StatusCode
	}()
	waitFor(t, 5*time.Second, func() bool {
		for _, ts := range svc.Stats().Tenants {
			if ts.Tenant == "two" {
				return ts.Admitted == 2 && ts.RejectedDeadline == 0
			}
		}
		return false
	})
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-respCh: // admitted; the expired members' outcome is not the point
	case <-time.After(10 * time.Second):
		t.Fatal("admitted two-member batch never finished")
	}
}

// TestHTTPKeyGenAllOrNothing: a multi-key /v1/keygen is admitted as one
// batch: with too little free space it is a 429 that leaves no keygen work
// queued, and a count above the queue cap is a 400 (split it).
func TestHTTPKeyGenAllOrNothing(t *testing.T) {
	stub := &stubBackend{name: "stub", weight: 1000, cap: 64}
	svc := newStubService(t, stub, WithQueueLimit(4))
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if _, err := submitSign(svc, []byte("occupant")); err != nil {
		t.Fatal(err)
	}
	sh := svc.router.shards[0]
	for _, tc := range []struct {
		count int
		want  int
	}{{4, http.StatusTooManyRequests}, {5, http.StatusBadRequest}} {
		resp, er := postSched(t, ts.URL+"/v1/keygen", nil, keygenRequest{Count: tc.count})
		if resp.StatusCode != tc.want {
			t.Fatalf("keygen count %d: status %d (%s), want %d", tc.count, resp.StatusCode, er.Error, tc.want)
		}
		if d := sh.gate.depth(); d != 1 {
			t.Fatalf("keygen count %d: shard depth %d after rejection, want 1 (nothing admitted)", tc.count, d)
		}
	}
	if def := findTenant(t, svc.Stats().Tenants, DefaultTenant); def.Admitted != 1 {
		t.Fatalf("default tenant admitted %d, want only the occupant", def.Admitted)
	}
}

// FuzzSchedItems drives the shared HTTP scheduling parser with arbitrary
// headers and body fields. It must never panic, must either write a 400 or
// return exactly one Item per member, must never return a deadline in the
// past, and a non-empty tenants[i] must override X-API-Key.
func FuzzSchedItems(f *testing.F) {
	f.Fuzz(func(t *testing.T, deadlineHdr, apiKey string, members int, body []byte) {
		var req signBatchRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		n := max(members%257, 1)
		r := httptest.NewRequest(http.MethodPost, "/v1/sign/batch", nil)
		if deadlineHdr != "" {
			r.Header.Set(DeadlineHeader, deadlineHdr)
		}
		if apiKey != "" {
			r.Header.Set(TenantHeader, apiKey)
		}
		w := httptest.NewRecorder()
		start := time.Now()
		items, ok := schedItems(w, r, n, req.DeadlineMs, req.DeadlinesMs, req.Tenants)
		if !ok {
			if w.Code != http.StatusBadRequest || items != nil {
				t.Fatalf("rejected with status %d and %d items, want a 400 and none", w.Code, len(items))
			}
			return
		}
		if w.Body.Len() != 0 || len(items) != n {
			t.Fatalf("accepted: wrote %q and returned %d items for %d members", w.Body.String(), len(items), n)
		}
		for i, it := range items {
			if !it.Deadline.IsZero() && !it.Deadline.After(start) {
				t.Fatalf("item %d deadline %v is in the past (parsed at %v)", i, it.Deadline, start)
			}
			want := r.Header.Get(TenantHeader)
			if len(req.Tenants) > 0 && req.Tenants[i] != "" {
				want = req.Tenants[i]
			}
			if it.Tenant != want {
				t.Fatalf("item %d tenant %q, want %q", i, it.Tenant, want)
			}
		}
	})
}
