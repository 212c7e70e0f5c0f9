package main

import (
	"net/http"
	"testing"
)

// TestNewServerLimits: the server bounds header, request and idle time and
// header size, and leaves writes unbounded so a queued sign can wait.
func TestNewServerLimits(t *testing.T) {
	h := http.NewServeMux()
	srv := newServer(":0", h)
	if srv.Addr != ":0" || srv.Handler != h {
		t.Fatalf("addr/handler = %q/%v, want :0 and the given handler", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout < srv.ReadHeaderTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts header=%v read=%v idle=%v, want positive with read >= header",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.MaxHeaderBytes <= 0 || srv.MaxHeaderBytes >= http.DefaultMaxHeaderBytes {
		t.Fatalf("MaxHeaderBytes = %d, want a cap below the 1 MiB default", srv.MaxHeaderBytes)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want none: a sign waits behind admission", srv.WriteTimeout)
	}
}
