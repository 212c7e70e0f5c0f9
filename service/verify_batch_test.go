package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"herosign/internal/spx"
)

// TestSubmitVerifyBatchAllOrNothing: an over-capacity verify batch is
// rejected as a unit — no pair admitted, nothing shed, no verification work
// spent — while an in-limit batch resolves every verdict.
func TestSubmitVerifyBatchAllOrNothing(t *testing.T) {
	svc := newTestService(t,
		WithQueueLimit(4), WithShedPolicy(DropOldestDeadline),
		WithMaxBatch(100), WithFlushDeadline(time.Hour))
	defer svc.Close()

	sk := testKey(t)
	msgs := make([][]byte, 5)
	sigs := make([][]byte, 5)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 'a', 'v'}
		sig, err := spx.Sign(sk, msgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}

	// A batch that can never fit the cap is non-retryable, not a 429.
	if _, err := submitBatch(svc, KindVerify, msgs, sigs); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("5-pair batch against limit 4 = %v, want ErrBatchTooLarge", err)
	}
	if _, err := svc.SubmitVerifyBatchKey("", msgs, sigs[:4]); err == nil {
		t.Fatal("mismatched message/signature counts must error")
	}

	// A batch that fits the cap but not the current free space is a
	// transient overload, and must not displace the occupant.
	occupant, err := submitSign(svc, []byte("occupant"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitBatch(svc, KindVerify, msgs[:4], sigs[:4]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("4-pair batch with 1 slot taken = %v, want ErrOverloaded", err)
	}
	select {
	case <-occupant.Done():
		t.Fatal("rejected verify batch displaced the occupant")
	default:
	}
	st := svc.Stats()
	if st.Shards[0].QueueDepth != 1 || st.ShedTotal != 0 {
		t.Fatalf("rejected batch left depth=%d shed=%d, want 1/0",
			st.Shards[0].QueueDepth, st.ShedTotal)
	}

	// An admitted batch resolves every pair, tampered members included.
	tampered := append([]byte(nil), sigs[1]...)
	tampered[90] ^= 1
	futs, err := submitBatch(svc, KindVerify, msgs[:3], [][]byte{sigs[0], tampered, sigs[2]})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil { // flush the hour-long coalescing window
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i, fut := range futs {
		res, err := fut.Wait(context.Background())
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if res.Valid != want[i] {
			t.Errorf("pair %d: valid = %v, want %v", i, res.Valid, want[i])
		}
	}
}
