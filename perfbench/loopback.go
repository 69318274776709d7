package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// loopback is an HTTP server on a 127.0.0.1 port, owned by the run.
type loopback struct {
	url  string
	srv  *http.Server
	done chan error
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close shuts the server down and waits for its serve loop to exit.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	if serr := <-lb.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}
