package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/jobd"
	"repro/internal/metrics"
	"repro/internal/runstore"
)

// env is one set-up of the system under test, wired like cmd/axiomd: a
// fresh run store installed as the process default, a jobd.Server with
// nproc in-process workers behind a real loopback listener, and one
// keep-alive HTTP client (one connection, closed loop).
type env struct {
	dir    string
	store  *runstore.Store
	srv    *jobd.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// newEnv sets the system up in dir. Without withStore the daemon and
// every session run memory-only.
func newEnv(dir string, withStore bool) (*env, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("clear %s: %w", dir, err)
	}
	cfg := jobd.Config{Tool: "perfbench", Workers: runtime.NumCPU()}
	var st *runstore.Store
	if withStore {
		var err error
		if st, err = runstore.Open(filepath.Join(dir, "store"), runstore.Options{}); err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	metrics.SetDefaultStore(st)
	srv := jobd.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &env{
		dir:    dir,
		store:  st,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close drains the daemon, stops the listener and removes the store.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := e.srv.Drain(ctx)
	shutErr := e.hs.Shutdown(ctx)
	if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	e.client.CloseIdleConnections()
	metrics.SetDefaultStore(nil)
	return errors.Join(drainErr, shutErr, os.RemoveAll(e.dir))
}
