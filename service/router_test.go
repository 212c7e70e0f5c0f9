package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"herosign/internal/gpu/device"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// TestShardedKeyDomains covers the per-shard key model: two shards own
// distinct derived keys, signatures name their key domain, verify routes by
// key ID (and fans out across shards when none is given), and every
// signature stays byte-identical to the CPU reference under the shard key.
func TestShardedKeyDomains(t *testing.T) {
	devA, _ := device.ByName("RTX 4090")
	devB, _ := device.ByName("A100")
	svc, err := New(
		WithParams(params.SPHINCSPlus128f),
		WithKey(testKey(t)),
		WithDevices(devA, devB),
		WithShards(2),
		WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	shards := svc.Shards()
	if len(shards) != 2 {
		t.Fatalf("Shards() = %d entries, want 2", len(shards))
	}
	if shards[0].KeyID == shards[1].KeyID {
		t.Fatal("shards share a key ID")
	}
	if bytes.Equal(shards[0].PublicKey.Bytes(), shards[1].PublicKey.Bytes()) {
		t.Fatal("shards share a public key")
	}
	// Shard 0 signs under the master key.
	if !bytes.Equal(shards[0].PublicKey.Bytes(), testKey(t).PublicKey.Bytes()) {
		t.Fatal("shard 0 does not own the master key")
	}

	ctx := context.Background()
	n := 12
	msgs := make([][]byte, n)
	futs := make([]*Future, n)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("sharded-%d", i))
		fut, err := submitSign(svc, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("sign %d: %v", i, err)
		}
		pk, err := svc.PublicKeyFor(res.KeyID)
		if err != nil {
			t.Fatalf("sign %d reported unknown key id %q", i, res.KeyID)
		}
		if err := spx.Verify(pk, msgs[i], res.Sig); err != nil {
			t.Fatalf("signature %d does not verify under its key domain: %v", i, err)
		}
		// Byte-identical to the reference under the executing shard's key.
		ref, err := spx.Sign(svc.router.shards[res.Shard].key, msgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, res.Sig) {
			t.Fatalf("signature %d differs from the reference for shard %d", i, res.Shard)
		}

		// Verify routed to the signing domain succeeds; the other domain
		// rejects; the fan-out path finds the right domain on its own.
		otherID := shards[0].KeyID
		if res.KeyID == otherID {
			otherID = shards[1].KeyID
		}
		if i < 3 {
			for _, tc := range []struct {
				keyID string
				want  bool
			}{{res.KeyID, true}, {otherID, false}, {"", true}} {
				fut, err := submitOne(svc, KindVerify, tc.keyID, Item{Msg: msgs[i], Sig: res.Sig})
				if err != nil {
					t.Fatal(err)
				}
				vres, err := fut.Wait(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if vres.Valid != tc.want {
					t.Fatalf("verify msg %d keyID=%q = %v, want %v", i, tc.keyID, vres.Valid, tc.want)
				}
			}
		}
	}

	if _, err := submitOne(svc, KindSign, "no-such-key", Item{Msg: []byte("x")}); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("unknown key id error = %v, want ErrUnknownKey", err)
	}

	st := svc.Stats()
	if len(st.Shards) != 2 {
		t.Fatalf("stats report %d shards, want 2", len(st.Shards))
	}
	for _, ss := range st.Shards {
		if ss.WeightSigsPerSec <= 0 {
			t.Fatalf("shard %d has no dispatch weight", ss.Shard)
		}
		if len(ss.Backends) != 1 {
			t.Fatalf("shard %d has %d backends, want 1", ss.Shard, len(ss.Backends))
		}
	}
}

// TestWeightedDispatchPrefersFasterBackend mixes a modeled GPU backend with
// a single-thread real-CPU backend in one shard: weighted
// least-outstanding-work dispatch must send the bulk of the load to the
// backend with the (much) higher sigs/s weight.
func TestWeightedDispatchPrefersFasterBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-backend dispatch needs a real cpuref batch")
	}
	devA, _ := device.ByName("RTX 4090")
	svc, err := New(
		WithParams(params.SPHINCSPlus128f),
		WithKey(testKey(t)),
		WithDevices(devA),
		WithBackends(NewCPURefBackend(1)),
		WithMaxBatch(8),
		WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	n := 48
	futs := make([]*Future, n)
	for i := range futs {
		fut, err := submitSign(svc, []byte(fmt.Sprintf("weighted-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	ctx := context.Background()
	pk := svc.PublicKey()
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("sign %d: %v", i, err)
		}
		if err := spx.Verify(pk, []byte(fmt.Sprintf("weighted-%d", i)), res.Sig); err != nil {
			t.Fatalf("signature %d (backend %s) does not verify: %v", i, res.Dev, err)
		}
	}

	st := svc.Stats()
	var gpuMsgs, cpuMsgs int64
	for _, d := range st.Devices {
		switch d.Device {
		case devA.Name:
			gpuMsgs = d.Messages
		case "cpuref-1t":
			cpuMsgs = d.Messages
			if d.WeightSigsPerSec <= 0 {
				t.Fatal("cpuref backend has no calibrated weight")
			}
		}
	}
	if gpuMsgs+cpuMsgs != int64(n) {
		t.Fatalf("backends executed %d messages, want %d", gpuMsgs+cpuMsgs, n)
	}
	if gpuMsgs <= cpuMsgs {
		t.Fatalf("weighted dispatch sent %d to the GPU vs %d to cpuref-1t; want the GPU to dominate",
			gpuMsgs, cpuMsgs)
	}
	t.Logf("weighted split: gpu=%d cpuref=%d", gpuMsgs, cpuMsgs)
}

// TestAdmissionRejectNewest fills a shard's bounded queue and checks the
// default policy rejects the overflow with a retry hint, with the counters
// visible in Stats.
func TestAdmissionRejectNewest(t *testing.T) {
	svc := newTestService(t,
		WithQueueLimit(4), WithMaxBatch(100), WithFlushDeadline(time.Hour))
	defer svc.Close()

	for i := 0; i < 4; i++ {
		if _, err := submitSign(svc, []byte(fmt.Sprintf("fill-%d", i))); err != nil {
			t.Fatalf("submit %d under the limit: %v", i, err)
		}
	}
	_, err := submitSign(svc, []byte("overflow"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-limit submit = %v, want ErrOverloaded", err)
	}
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("over-limit error %T does not carry an OverloadError", err)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("retry hint = %v, want > 0", over.RetryAfter)
	}
	if over.Scope != "shard" {
		t.Fatalf("scope = %q, want shard", over.Scope)
	}

	st := svc.Stats()
	if st.RejectedTotal != 1 || st.ShedTotal != 0 {
		t.Fatalf("rejected/shed = %d/%d, want 1/0", st.RejectedTotal, st.ShedTotal)
	}
	if got := st.Shards[0].QueueDepth; got != 4 {
		t.Fatalf("shard queue depth = %d, want 4", got)
	}
	if got := st.Shards[0].QueueLimit; got != 4 {
		t.Fatalf("shard queue limit = %d, want 4", got)
	}
}

// TestSubmitSignBatchAllOrNothing: an over-limit batch is rejected without
// admitting (or shedding) anything; an in-limit batch signs completely.
func TestSubmitSignBatchAllOrNothing(t *testing.T) {
	svc := newTestService(t,
		WithQueueLimit(4), WithShedPolicy(DropOldestDeadline),
		WithMaxBatch(100), WithFlushDeadline(time.Hour))
	defer svc.Close()

	// A batch that can never fit the cap is non-retryable, not a 429.
	over := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	if _, err := submitBatch(svc, KindSign, over, nil); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("5-message batch against limit 4 = %v, want ErrBatchTooLarge", err)
	}

	// A batch that fits the cap but not the current free space is a
	// transient overload — and must not shed the occupant to make room.
	occupant, err := submitSign(svc, []byte("occupant"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitBatch(svc, KindSign, over[:4], nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("4-message batch with 1 slot taken = %v, want ErrOverloaded", err)
	}
	select {
	case <-occupant.Done():
		t.Fatal("rejected batch displaced the occupant")
	default:
	}
	st := svc.Stats()
	if st.Shards[0].QueueDepth != 1 || st.ShedTotal != 0 {
		t.Fatalf("rejected batch left depth=%d shed=%d, want 1/0",
			st.Shards[0].QueueDepth, st.ShedTotal)
	}

	futs, err := submitBatch(svc, KindSign, over[:3], nil)
	if err != nil {
		t.Fatal(err)
	}

	// The queue is now full (occupant + 3 pinned members). A new single
	// submit sheds the only unpinned request — the occupant — while the
	// batch members survive.
	extra, err := submitSign(svc, []byte("extra"))
	if err != nil {
		t.Fatalf("drop-oldest should shed the occupant for the newcomer: %v", err)
	}
	if _, err := occupant.Wait(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("occupant error = %v, want ErrOverloaded (shed)", err)
	}

	if err := svc.Close(); err != nil { // flush the hour-long coalescing window
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("pinned batch member %d was shed: %v", i, err)
		}
		if err := spx.Verify(svc.PublicKey(), over[i], res.Sig); err != nil {
			t.Fatalf("batch signature %d invalid: %v", i, err)
		}
	}
	if res, err := extra.Wait(ctx); err != nil || len(res.Sig) == 0 {
		t.Fatalf("admitted newcomer failed: %v", err)
	}
	if st := svc.Stats(); st.GlobalQueueDepth != 0 {
		t.Fatalf("admission gates did not drain: depth %d", st.GlobalQueueDepth)
	}
}

// TestAdmissionGlobalLimit checks the service-wide cap fires independently
// of per-shard room.
func TestAdmissionGlobalLimit(t *testing.T) {
	svc := newTestService(t,
		WithGlobalQueueLimit(2), WithMaxBatch(100), WithFlushDeadline(time.Hour))
	defer svc.Close()

	for i := 0; i < 2; i++ {
		if _, err := submitSign(svc, []byte(fmt.Sprintf("g-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_, err := submitSign(svc, []byte("overflow"))
	var over *OverloadError
	if !errors.As(err, &over) || over.Scope != "global" {
		t.Fatalf("global overflow = %v, want OverloadError{Scope: global}", err)
	}
	st := svc.Stats()
	if st.GlobalQueueDepth != 2 || st.GlobalQueueLimit != 2 {
		t.Fatalf("global depth/limit = %d/%d, want 2/2", st.GlobalQueueDepth, st.GlobalQueueLimit)
	}
	if st.RejectedTotal != 1 {
		t.Fatalf("rejected = %d, want 1", st.RejectedTotal)
	}
}

// TestAdmissionDropOldestDeadline checks the shedding policy: the oldest
// still-coalescing request is evicted (its future resolving ErrOverloaded)
// to admit the newcomer.
func TestAdmissionDropOldestDeadline(t *testing.T) {
	svc := newTestService(t,
		WithQueueLimit(2), WithShedPolicy(DropOldestDeadline),
		WithMaxBatch(100), WithFlushDeadline(time.Hour))
	defer svc.Close()

	oldest, err := submitSign(svc, []byte("oldest"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitSign(svc, []byte("middle")); err != nil {
		t.Fatal(err)
	}
	newest, err := submitSign(svc, []byte("newest"))
	if err != nil {
		t.Fatalf("drop-oldest should admit the newcomer, got %v", err)
	}

	// The evicted future resolves ErrOverloaded without waiting for Close.
	select {
	case <-oldest.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("shed future never resolved")
	}
	if _, err := oldest.Wait(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed future error = %v, want ErrOverloaded", err)
	}

	st := svc.Stats()
	if st.ShedTotal != 1 || st.RejectedTotal != 0 {
		t.Fatalf("shed/rejected = %d/%d, want 1/0", st.ShedTotal, st.RejectedTotal)
	}
	if st.ShedPolicy != "drop-oldest-deadline" {
		t.Fatalf("policy = %q", st.ShedPolicy)
	}

	// Close drains the two admitted requests; the newest must sign.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := newest.Wait(context.Background())
	if err != nil {
		t.Fatalf("admitted newcomer failed: %v", err)
	}
	if err := spx.Verify(svc.PublicKey(), []byte("newest"), res.Sig); err != nil {
		t.Fatalf("newcomer signature invalid: %v", err)
	}
}

// TestCloseUnderLoadRace hammers the service with concurrent submitters and
// Stats readers while Close runs mid-load. Run with -race (the Makefile's
// service test lane does): this is the regression test for the close vs
// in-flight stats-recording race. Every submitted future must still resolve
// exactly once, either with a signature or ErrClosed.
func TestCloseUnderLoadRace(t *testing.T) {
	svc := newTestService(t, WithFlushDeadline(time.Millisecond), WithMaxBatch(4))

	const submitters, perSubmitter = 4, 15
	var mu sync.Mutex
	var futs []*Future
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				fut, err := submitSign(svc, []byte(fmt.Sprintf("load-%d-%d", g, i)))
				if err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				futs = append(futs, fut)
				mu.Unlock()
				time.Sleep(200 * time.Microsecond)
			}
		}(g)
	}
	// Concurrent stats reader races the recording and the close path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = svc.Stats()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	time.Sleep(5 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Stats after close must be coherent too.
	_ = svc.Stats()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("future %d resolved with %v", i, err)
		}
		if err == nil && len(res.Sig) == 0 {
			t.Fatalf("future %d resolved without a signature", i)
		}
	}
}

// TestDrainDeadlineAbandonsQueue checks Close stops waiting at the
// configured drain deadline: batches not yet started resolve ErrClosed
// instead of holding Close hostage to a deep queue on a slow backend.
func TestDrainDeadlineAbandonsQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a deliberately slow real-CPU backend")
	}
	svc, err := New(
		WithParams(params.SPHINCSPlus128f),
		WithKey(testKey(t)),
		WithBackends(NewCPURefBackend(1)),
		WithMaxBatch(1),
		WithFlushDeadline(time.Millisecond),
		WithDrainDeadline(30*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}

	const n = 12
	futs := make([]*Future, n)
	for i := range futs {
		fut, err := submitSign(svc, []byte(fmt.Sprintf("drain-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}

	start := time.Now()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	closeTook := time.Since(start)
	// A full drain of 12 single-message batches on one thread takes ~150ms+;
	// the deadline plus one in-flight batch must come in well under that.
	if closeTook > 5*time.Second {
		t.Fatalf("Close took %v despite the drain deadline", closeTook)
	}

	ctx := context.Background()
	var signed, abandoned int
	for i, fut := range futs {
		res, err := fut.Wait(ctx)
		switch {
		case err == nil:
			if len(res.Sig) == 0 {
				t.Fatalf("future %d resolved without a signature", i)
			}
			signed++
		case errors.Is(err, ErrClosed):
			abandoned++
		default:
			t.Fatalf("future %d resolved with %v", i, err)
		}
	}
	if abandoned == 0 {
		t.Fatalf("drain deadline abandoned nothing (signed=%d); queue drained fully before 30ms?", signed)
	}
	t.Logf("drain deadline: %d signed, %d abandoned, Close took %v", signed, abandoned, closeTook)
}

// TestAutoQueueLimit checks AutoQueueLimit derives the caps from backend
// capacity hints.
func TestAutoQueueLimit(t *testing.T) {
	svc := newTestService(t, WithQueueLimit(AutoQueueLimit), WithGlobalQueueLimit(AutoQueueLimit))
	defer svc.Close()
	st := svc.Stats()
	if st.Shards[0].QueueLimit <= 0 {
		t.Fatalf("auto shard queue limit = %d, want > 0", st.Shards[0].QueueLimit)
	}
	if st.GlobalQueueLimit < st.Shards[0].QueueLimit {
		t.Fatalf("global limit %d below shard limit %d", st.GlobalQueueLimit, st.Shards[0].QueueLimit)
	}
}

// TestShardKeyDerivationDeterministic pins the derived shard keys to the
// master key so restarts keep the key catalog stable.
func TestShardKeyDerivationDeterministic(t *testing.T) {
	a, err := deriveShardKey(testKey(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := deriveShardKey(testKey(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("shard key derivation is not deterministic")
	}
	c, err := deriveShardKey(testKey(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different shard indices derived the same key")
	}
}
