package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"groundhog/internal/gateway"
	"groundhog/internal/isolation"
	"groundhog/internal/server"
)

// stack is one live serving stack on loopback: a server.Server behind a
// gateway.Gateway with an HTTP listener and a binary-protocol listener, as
// cmd/ghserve mounts them.
type stack struct {
	srv     *server.Server
	gw      *gateway.Gateway
	httpSrv *http.Server
	httpURL string
	binAddr string
	wg      sync.WaitGroup
}

func startStack() (*stack, error) {
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return nil, err
	}
	srv := server.New()
	st := &stack{
		srv:     srv,
		gw:      gateway.New(srv, gateway.Config{}),
		httpURL: "http://" + httpLn.Addr().String(),
		binAddr: binLn.Addr().String(),
	}
	st.httpSrv = &http.Server{Handler: st.gw}
	st.wg.Add(2)
	go func() {
		defer st.wg.Done()
		_ = st.httpSrv.Serve(httpLn) // returns http.ErrServerClosed on close
	}()
	go func() {
		defer st.wg.Done()
		_ = st.gw.ServeBinary(binLn) // returns nil once the gateway is closed
	}()
	return st, nil
}

// close stops both listeners, waits for them, and shuts the server down,
// returning the snapshot frames left allocated (0 unless memory leaked).
func (st *stack) close() int {
	_ = st.httpSrv.Close()
	_ = st.gw.Close()
	st.wg.Wait()
	return st.srv.Shutdown()
}

// outcome classifies one request.
type outcome int

const (
	outOK        outcome = iota
	outRejected          // 429 / queue-full frame
	outTransient         // 503 / transient frame
	outError             // transport error or unexpected status
	outBadEcho           // served, but the echoed body differs from the request
)

// client sends requests to the workload's function over one connection;
// not safe for concurrent use. internal/loadgen has clients too, but they
// drop the response's modeled latency; these return it.
type client interface {
	// do sends body and returns the response's modeled E2E latency in
	// virtual milliseconds.
	do(body []byte) (modelMs float64, o outcome, err error)
	close()
}

func dial(spec servingSpec, st *stack) (client, error) {
	if spec.transport == "binary" {
		return dialBinary(spec.fn, st.binAddr)
	}
	return newHTTPClient(spec.fn, st.httpURL), nil
}

// httpClient holds exactly one keep-alive connection to the gateway.
type httpClient struct {
	tr  *http.Transport
	c   *http.Client
	url string
	rd  bytes.Reader
	buf bytes.Buffer
}

func newHTTPClient(fn, base string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{tr: tr, c: &http.Client{Transport: tr}, url: base + "/fn/" + url.PathEscape(fn)}
}

func (h *httpClient) do(body []byte) (float64, outcome, error) {
	h.rd.Reset(body)
	req, err := http.NewRequest(http.MethodPost, h.url, &h.rd)
	if err != nil {
		return 0, outError, err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, outError, err
	}
	h.buf.Reset()
	_, err = io.Copy(&h.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, outError, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if !bytes.Equal(h.buf.Bytes(), body) {
			return 0, outBadEcho, fmt.Errorf("echo mismatch: %d bytes back, %d sent", h.buf.Len(), len(body))
		}
		us, err := statsE2EUs(resp.Header.Get("X-Gh-Stats"))
		if err != nil {
			return 0, outError, err
		}
		return us / 1000, outOK, nil
	case http.StatusTooManyRequests:
		return 0, outRejected, nil
	case http.StatusServiceUnavailable:
		return 0, outTransient, nil
	default:
		return 0, outError, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(h.buf.String()))
	}
}

func (h *httpClient) close() { h.tr.CloseIdleConnections() }

// statsE2EUs reads e2e_us from an X-Gh-Stats header value.
func statsE2EUs(h string) (float64, error) {
	for _, kv := range strings.Split(h, ";") {
		if v, ok := strings.CutPrefix(kv, "e2e_us="); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("X-Gh-Stats %q has no e2e_us", h)
}

// binClient speaks the binary protocol over one connection, with the
// function's route resolved once at dial time.
type binClient struct {
	c  *gateway.BinaryClient
	id uint32
}

func dialBinary(fn, addr string) (*binClient, error) {
	c, err := gateway.DialBinary(addr)
	if err != nil {
		return nil, err
	}
	id, err := c.Resolve(fn, isolation.ModeGH)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("resolve %s: %w", fn, err)
	}
	return &binClient{c: c, id: id}, nil
}

func (b *binClient) do(body []byte) (float64, outcome, error) {
	res, err := b.c.Invoke(b.id, "", body)
	if err != nil {
		var pe *gateway.ProtoError
		if errors.As(err, &pe) {
			switch pe.Code {
			case gateway.CodeQueueFull:
				return 0, outRejected, nil
			case gateway.CodeTransient:
				return 0, outTransient, nil
			}
		}
		return 0, outError, err
	}
	if !bytes.Equal(res.Body, body) {
		return 0, outBadEcho, fmt.Errorf("echo mismatch: %d bytes back, %d sent", len(res.Body), len(body))
	}
	return float64(res.E2EUs) / 1000, outOK, nil
}

func (b *binClient) close() { b.c.Close() }
