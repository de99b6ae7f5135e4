package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"epfis/internal/service"
)

// httpNode is one service.Server behind the benchmark's own http.Server on
// a loopback port, so the benchmark can wrap Server.Handler().
type httpNode struct {
	srv  *service.Server
	hs   *http.Server
	ln   net.Listener
	url  string
	errc chan error
}

// listen reserves a loopback port; the node's URL must be known before its
// server (and, in cluster mode, its ring identity) is built.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serveNode starts serving srv on ln. rec (traced runs) and wrap (tests)
// interpose on the handler.
func serveNode(opts *options, srv *service.Server, ln net.Listener, url string, rec *recorder, id int) (*httpNode, error) {
	h := srv.Handler()
	if opts.wrapHandler != nil {
		h = opts.wrapHandler(h)
	}
	if rec != nil {
		h = rec.traceHandler(id, h)
	}
	n := &httpNode{
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
		url:  url,
		errc: make(chan error, 1),
	}
	go func() { n.errc <- n.hs.Serve(ln) }()
	if err := waitHealthy(url); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

// stop shuts the HTTP server down, waits for its serve loop to exit, and
// releases the service's background workers.
func (n *httpNode) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		n.hs.Close()
	}
	<-n.errc // http.ErrServerClosed once Shutdown or Close has run
	n.srv.Close()
}

// waitHealthy polls /healthz until the node answers 200.
func waitHealthy(url string) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s not healthy: %v", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readBody reads a response body into buf (reused) and closes it.
func readBody(resp *http.Response, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, resp.Body.Close()
		}
		if err != nil {
			resp.Body.Close()
			return buf, err
		}
	}
}
