package service

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestPoolReleasesExecutedBatch: once a batch has run, the pool holds no
// reference to it, so its messages, signatures and futures can be
// collected before the queue next grows.
func TestPoolReleasesExecutedBatch(t *testing.T) {
	p := newPool(0, 0, &stubBackend{name: "stub", weight: 1, cap: 8})
	go p.run(t.Context(), testKey(t), "key")
	defer func() { p.beginClose(); <-p.done }()

	fut := newFuture()
	j := &batchJob{kind: KindSign, reqs: []*request{{msg: []byte("m"), fut: fut}}}
	wp := weak.Make(j)
	p.enqueue(j)
	j = nil
	if _, err := fut.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for wp.Value() != nil {
		if time.Now().After(deadline) {
			t.Fatal("the pool still holds the executed batch")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
