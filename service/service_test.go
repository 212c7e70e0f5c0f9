package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"herosign/internal/core"
	"herosign/internal/gpu/device"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// newTestService builds a small two-device service. The signer cache makes
// repeated construction cheap across tests.
func newTestService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	devA, err := device.ByName("RTX 4090")
	if err != nil {
		t.Fatal(err)
	}
	devB, err := device.ByName("A100")
	if err != nil {
		t.Fatal(err)
	}
	base := []Option{
		WithParams(params.SPHINCSPlus128f),
		WithKey(testKey(t)),
		WithDevices(devA, devB),
		WithFlushDeadline(2 * time.Millisecond),
	}
	svc, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

var testKeyOnce struct {
	sync.Once
	sk *spx.PrivateKey
}

// testKey derives one deterministic key shared by the tests so the cached
// signers' PTX warm-up matches across services.
func testKey(t *testing.T) *spx.PrivateKey {
	testKeyOnce.Do(func() {
		p := params.SPHINCSPlus128f
		seed := bytes.Repeat([]byte{0x5a}, p.N)
		prf := bytes.Repeat([]byte{0xa5}, p.N)
		pub := bytes.Repeat([]byte{0x3c}, p.N)
		sk, err := spx.KeyFromSeeds(p, seed, prf, pub)
		if err != nil {
			t.Fatalf("testKey: %v", err)
		}
		testKeyOnce.sk = sk
	})
	return testKeyOnce.sk
}

// TestFleetCoalescedSignaturesIdentical is the acceptance-criterion core: a
// two-device fleet serving coalesced single-message submits must produce
// signatures byte-identical to Sign (checked via Verify on every message
// and a byte-compare against the reference on a sample).
func TestFleetCoalescedSignaturesIdentical(t *testing.T) {
	n := 96
	if testing.Short() {
		n = 24
	}
	svc := newTestService(t)
	defer svc.Close()

	msgs := make([][]byte, n)
	futs := make([]*Future, n)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("coalesce-%d", i))
		fut, err := submitSign(svc, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	ctx := context.Background()
	pk := svc.PublicKey()
	coalesced := 0
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("sign %d: %v", i, err)
		}
		if err := spx.Verify(pk, msgs[i], res.Sig); err != nil {
			t.Fatalf("signature %d does not verify: %v", i, err)
		}
		if res.Batch > 1 {
			coalesced++
		}
		if i%16 == 0 {
			ref, err := spx.Sign(svc.cfg.Key, msgs[i], nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, res.Sig) {
				t.Fatalf("signature %d differs from the reference", i)
			}
		}
	}
	if coalesced == 0 {
		t.Fatal("no request rode in a coalesced batch — the batcher never merged")
	}

	st := svc.Stats()
	var workersUsed int
	for _, d := range st.Devices {
		if d.Messages > 0 {
			workersUsed++
		}
	}
	if workersUsed < 2 {
		t.Fatalf("least-outstanding dispatch used %d workers, want both", workersUsed)
	}
	if st.TotalMessages != int64(n) {
		t.Fatalf("stats counted %d messages, want %d", st.TotalMessages, n)
	}
}

// TestFleetModeledSpeedup asserts the serving-layer throughput claim:
// coalesced fleet execution beats sequential SignBatch(1) calls by >= 5x in
// modeled signatures/sec.
func TestFleetModeledSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement needs a full batch")
	}
	n := 128
	svc := newTestService(t)
	defer svc.Close()

	futs := make([]*Future, n)
	for i := range futs {
		fut, err := submitSign(svc, []byte(fmt.Sprintf("speedup-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	ctx := context.Background()
	for _, fut := range futs {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Baseline: one sequential single-message batch, scaled by n (the sim
	// is deterministic, verified in the engine tests).
	dev, _ := device.ByName("RTX 4090")
	solo, err := cachedSigner(core.Config{
		Params: svc.cfg.Params, Device: dev,
		Features: svc.cfg.Features, SubBatch: svc.cfg.SubBatch, Streams: svc.cfg.Streams,
	}, svc.cfg.Key)
	if err != nil {
		t.Fatal(err)
	}
	one, err := solo.SignBatch(svc.cfg.Key, [][]byte{[]byte("baseline")})
	if err != nil {
		t.Fatal(err)
	}
	baselineSec := float64(n) * one.TotalUs / 1e6

	st := svc.Stats()
	if st.ModeledMakespanSec <= 0 {
		t.Fatal("no modeled makespan recorded")
	}
	speedup := baselineSec / st.ModeledMakespanSec
	t.Logf("modeled speedup: %.1fx (makespan %.3fms vs sequential %.3fms)",
		speedup, st.ModeledMakespanSec*1e3, baselineSec*1e3)
	if speedup < 5 {
		t.Fatalf("modeled speedup %.1fx, want >= 5x", speedup)
	}
}

func TestServicePerMessageErrors(t *testing.T) {
	svc := newTestService(t, WithMaxBatch(4), WithFlushDeadline(time.Hour))
	defer svc.Close()

	// One empty message rides with three good ones in a single batch; the
	// empty one must fail alone.
	futs := make([]*Future, 0, 4)
	empty, err := submitSign(svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fut, err := submitSign(svc, []byte(fmt.Sprintf("good-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	ctx := context.Background()
	if _, err := empty.Wait(ctx); !errors.Is(err, ErrEmptyMessage) {
		t.Fatalf("empty message error = %v, want ErrEmptyMessage", err)
	}
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("good message %d: %v", i, err)
		}
		if res.Batch != 3 {
			t.Fatalf("good batch size = %d, want 3 (empty message filtered)", res.Batch)
		}
	}

	// Same for verify: a wrong-length signature fails alone. The reference
	// signature is byte-identical to the service's, so sign on the CPU
	// (a single Sign call would sit in the hour-long coalescing window).
	msg := []byte("verify me")
	sig, err := spx.Sign(svc.cfg.Key, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := submitOne(svc, KindVerify, "", Item{Msg: msg, Sig: []byte("short")})
	if err != nil {
		t.Fatal(err)
	}
	good := make([]*Future, 0, 3)
	for i := 0; i < 3; i++ {
		fut, err := submitOne(svc, KindVerify, "", Item{Msg: msg, Sig: sig})
		if err != nil {
			t.Fatal(err)
		}
		good = append(good, fut)
	}
	if _, err := bad.Wait(ctx); !errors.Is(err, ErrSignatureLength) {
		t.Fatalf("short signature error = %v, want ErrSignatureLength", err)
	}
	for i, fut := range good {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("good verify %d: %v", i, err)
		}
		if !res.Valid {
			t.Fatalf("good verify %d reported invalid", i)
		}
	}
}

func TestServiceVerifyAndKeyGen(t *testing.T) {
	svc := newTestService(t)
	defer svc.Close()
	ctx := context.Background()

	msg := []byte("round trip")
	sig, err := svc.Sign(ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := svc.Verify(ctx, msg, sig)
	if err != nil || !ok {
		t.Fatalf("valid signature rejected: ok=%v err=%v", ok, err)
	}
	ok, err = svc.Verify(ctx, []byte("tampered"), sig)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered message verified")
	}

	// KeyGen through the fleet matches KeyFromSeeds.
	p := svc.Params()
	seed := core.SeedTriple{
		SKSeed: bytes.Repeat([]byte{1}, p.N),
		SKPRF:  bytes.Repeat([]byte{2}, p.N),
		PKSeed: bytes.Repeat([]byte{3}, p.N),
	}
	fut, err := submitOne(svc, KindKeyGen, "", Item{Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spx.KeyFromSeeds(p, seed.SKSeed, seed.SKPRF, seed.PKSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Key.Bytes(), want.Bytes()) {
		t.Fatal("fleet keygen differs from KeyFromSeeds")
	}

	// A malformed seed triple fails alone; batch-mates still derive.
	badSeed := core.SeedTriple{SKSeed: []byte("short"), SKPRF: seed.SKPRF, PKSeed: seed.PKSeed}
	badFut, err := submitOne(svc, KindKeyGen, "", Item{Seed: &badSeed})
	if err != nil {
		t.Fatal(err)
	}
	goodFut, err := submitOne(svc, KindKeyGen, "", Item{Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := badFut.Wait(ctx); !errors.Is(err, ErrSeedLength) {
		t.Fatalf("bad seed error = %v, want ErrSeedLength", err)
	}
	goodRes, err := goodFut.Wait(ctx)
	if err != nil {
		t.Fatalf("good keygen poisoned by bad batch-mate: %v", err)
	}
	if !bytes.Equal(goodRes.Key.Bytes(), want.Bytes()) {
		t.Fatal("good keygen result corrupted")
	}
}

func TestServiceCloseDrains(t *testing.T) {
	svc := newTestService(t, WithFlushDeadline(time.Hour)) // only Close can flush
	futs := make([]*Future, 0, 5)
	for i := 0; i < 5; i++ {
		fut, err := submitSign(svc, []byte(fmt.Sprintf("drain-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	done := make(chan struct{})
	go func() { svc.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain")
	}
	ctx := context.Background()
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("drained future %d: %v", i, err)
		}
		if len(res.Sig) == 0 {
			t.Fatalf("drained future %d has no signature", i)
		}
	}
	if _, err := submitSign(svc, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close = %v, want ErrClosed", err)
	}
	if _, err := submitOne(svc, KindVerify, "", Item{Msg: []byte("late"), Sig: nil}); !errors.Is(err, ErrClosed) {
		t.Fatalf("verify after Close = %v, want ErrClosed", err)
	}
	if _, err := submitOne(svc, KindKeyGen, "", Item{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("keygen after Close = %v, want ErrClosed", err)
	}
}
