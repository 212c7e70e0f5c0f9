package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"herosign/internal/gpu/device"
	"herosign/internal/spx"
	"herosign/internal/spx/params"
)

// TestDynamicAddRemoveBackend: a service started with dynamic membership
// and zero backends rejects work with ErrNoBackends, serves byte-identical
// signatures once a backend is admitted, and returns to ErrNoBackends
// after the backend is removed (its pool drained and closed).
func TestDynamicAddRemoveBackend(t *testing.T) {
	svc, err := New(
		WithParams(params.SPHINCSPlus128f),
		WithKey(testKey(t)),
		WithDynamicMembership(),
		WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()

	// No members yet: flushing work fails with ErrNoBackends.
	fut, err := submitSign(svc, []byte("before-join"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("sign with no members: err = %v, want ErrNoBackends", err)
	}

	// Admit a backend at runtime.
	dev, err := device.ByName("RTX 4090")
	if err != nil {
		t.Fatal(err)
	}
	b := NewDeviceBackend(dev)
	if err := svc.AddBackend(b); err != nil {
		t.Fatalf("AddBackend: %v", err)
	}
	if got := len(svc.Shards()[0].Backends); got != 1 {
		t.Fatalf("shard backends after add = %d, want 1", got)
	}

	msgs := make([][]byte, 6)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("dynamic-%d", i))
		fut, err := submitSign(svc, msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("sign %d after join: %v", i, err)
		}
		want, err := spx.Sign(testKey(t), msgs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Sig, want) {
			t.Fatalf("signature %d differs from CPU reference after dynamic join", i)
		}
	}

	// Retire it again: pool drains, work is refused once more.
	if err := svc.RemoveBackend(b); err != nil {
		t.Fatalf("RemoveBackend: %v", err)
	}
	if got := len(svc.Shards()[0].Backends); got != 0 {
		t.Fatalf("shard backends after remove = %d, want 0", got)
	}
	fut, err = submitSign(svc, []byte("after-leave"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("sign after remove: err = %v, want ErrNoBackends", err)
	}

	// Removing an unknown backend errors instead of panicking.
	if err := svc.RemoveBackend(b); err == nil {
		t.Fatal("second RemoveBackend of the same backend succeeded")
	}
}

// TestDynamicAutoLimitsRecompute: with AutoQueueLimit, admission caps must
// grow as members join and shrink as they leave.
func TestDynamicAutoLimitsRecompute(t *testing.T) {
	svc, err := New(
		WithParams(params.SPHINCSPlus128f),
		WithKey(testKey(t)),
		WithDynamicMembership(),
		WithQueueLimit(AutoQueueLimit),
		WithFlushDeadline(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	limit0 := svc.Stats().Shards[0].QueueLimit

	dev, err := device.ByName("RTX 4090")
	if err != nil {
		t.Fatal(err)
	}
	b := NewDeviceBackend(dev)
	if err := svc.AddBackend(b); err != nil {
		t.Fatal(err)
	}
	limit1 := svc.Stats().Shards[0].QueueLimit
	if limit1 <= limit0 {
		t.Fatalf("auto queue limit did not grow on join: %d -> %d", limit0, limit1)
	}

	if err := svc.RemoveBackend(b); err != nil {
		t.Fatal(err)
	}
	limit2 := svc.Stats().Shards[0].QueueLimit
	if limit2 >= limit1 {
		t.Fatalf("auto queue limit did not shrink on leave: %d -> %d", limit1, limit2)
	}
}
