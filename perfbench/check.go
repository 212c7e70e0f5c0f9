package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"

	"herosign/internal/spx"
)

// sigChunk is the sigStore allocation unit, a multiple of the page size.
const sigChunk = 1 << 20

// maxSigChunks bounds the chunks a store expects (512 MiB of signatures,
// past any run's); the chunk lists are allocated at that size up front, so
// that they do not grow on the heap while heap_mb is read.
const maxSigChunks = 512

// sigStore keeps every returned signature for the correctness check after
// the timed phases, packed into chunks mapped outside the Go heap. Held on
// the heap, the signatures would raise the collector's heap goal as a run
// goes on, so the program under test would collect less often in later
// rounds than in earlier ones, and less often in fast runs than in slow
// ones. Where mapping fails a chunk falls back to the heap, and heldBytes
// counts it so that heap_mb can subtract it.
type sigStore struct {
	mu        sync.Mutex
	chunks    [][]byte
	mapped    [][]byte // the chunks that are mappings, for release
	heapBytes int64
	recs      []sigRec
}

type sigRec struct {
	stream, msg uint64
	chunk, off  int32
	n           int32
}

func newSigStore(capHint int) *sigStore {
	return &sigStore{chunks: make([][]byte, 0, maxSigChunks), mapped: make([][]byte, 0, maxSigChunks), recs: make([]sigRec, 0, capHint)}
}

func (s *sigStore) add(stream, msg uint64, sig []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1])+len(sig) > sigChunk {
		s.chunks = append(s.chunks, s.newChunk())
		n++
	}
	c := s.chunks[n-1]
	s.recs = append(s.recs, sigRec{stream: stream, msg: msg, chunk: int32(n - 1), off: int32(len(c)), n: int32(len(sig))})
	s.chunks[n-1] = append(c, sig...)
}

func (s *sigStore) newChunk() []byte {
	c, err := syscall.Mmap(-1, 0, sigChunk, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		s.heapBytes += sigChunk
		return make([]byte, 0, sigChunk)
	}
	s.mapped = append(s.mapped, c)
	return c[:0]
}

func (s *sigStore) sig(r sigRec) []byte { return s.chunks[r.chunk][r.off : r.off+r.n] }

// heldBytes is the heap the store's chunks occupy: 0 unless mapping failed.
func (s *sigStore) heldBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heapBytes
}

// release unmaps the chunks. The store is empty afterwards.
func (s *sigStore) release() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, c := range s.mapped {
		errs = append(errs, syscall.Munmap(c))
	}
	s.chunks, s.mapped, s.recs, s.heapBytes = nil, nil, s.recs[:0], 0
	return errors.Join(errs...)
}

// checkResult counts correctness failures found after a run.
type checkResult struct {
	sigsChecked    int
	badSigs        int // returned signatures spx.Verify rejects
	compared       int
	mismatched     int // sampled signatures differing from spx.Signer's
	verdicts       int
	wrongVerdicts  int
	forgedAccepted int
}

func (c checkResult) failures() int { return c.badSigs + c.mismatched + c.wrongVerdicts }

// checkSigs verifies every stored signature with spx.Verify on every CPU,
// and byte-compares the signatures of the sample messages with a fresh
// spx.Signer's for the same key.
func checkSigs(seed uint64, sk *spx.PrivateKey, store *sigStore, sample map[[2]uint64]bool) (checkResult, error) {
	var res checkResult
	recs := store.recs
	workers := runtime.GOMAXPROCS(0)
	bad := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += workers {
				r := recs[i]
				if spx.Verify(&sk.PublicKey, message(seed, r.stream, r.msg), store.sig(r)) != nil {
					bad[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	res.sigsChecked = len(recs)
	for _, b := range bad {
		res.badSigs += b
	}
	signer := spx.NewSigner(sk)
	for _, r := range recs {
		if !sample[[2]uint64{r.stream, r.msg}] {
			continue
		}
		want, err := signer.Sign(message(seed, r.stream, r.msg), nil)
		if err != nil {
			return res, fmt.Errorf("reference signature: %w", err)
		}
		res.compared++
		if !bytes.Equal(want, store.sig(r)) {
			res.mismatched++
		}
	}
	return res, nil
}

// checkVerdicts compares every verify verdict with its expected value.
func checkVerdicts(recs []record, res *checkResult) {
	for _, r := range recs {
		if !r.ok {
			continue
		}
		for j := 0; j < r.ops; j++ {
			v, want := r.valid>>j&1 == 1, r.expect>>j&1 == 1
			res.verdicts++
			if v != want {
				res.wrongVerdicts++
				if v {
					res.forgedAccepted++
				}
			}
		}
	}
}
