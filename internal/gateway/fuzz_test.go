package gateway

import (
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// fuzzMaxBody keeps the largest accepted length prefix small, so the
// fuzzer reaches the oversized-length path with short inputs.
const fuzzMaxBody = 256

// FuzzBinaryConn drives ServeBinaryConn over net.Pipe with arbitrary client
// bytes and holds the framing contract: the gateway never panics; every
// complete frame gets exactly one well-formed response; a zero or oversized
// length prefix answers CodeBadFrame and closes the connection; any other
// frame — however malformed its payload — leaves the connection serving,
// which a resolve sent after the input confirms. The seed corpus lives in
// testdata/fuzz/FuzzBinaryConn.
func FuzzBinaryConn(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		_, g := newGateway(t, Config{MaxBody: fuzzMaxBody})
		client, srv := net.Pipe()
		if err := client.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		served, wrote := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(served)
			_ = g.ServeBinaryConn(srv)
		}()
		// net.Pipe is unbuffered: the gateway consumes the input frame by
		// frame while this goroutine reads the answers. Closing the client
		// ends both goroutines.
		go func() {
			defer close(wrote)
			_, _ = client.Write(input)
		}()
		defer func() {
			client.Close()
			<-wrote
			<-served
		}()

		rest := input
		for len(rest) >= 4 {
			n := binary.BigEndian.Uint32(rest)
			if n == 0 || n > fuzzMaxBody+frameOverhead {
				op, p := readFrame(t, client)
				if code, _, _ := errFrame(t, op, p); code != CodeBadFrame {
					t.Fatalf("bad length %d answered code %d, want %d", n, code, CodeBadFrame)
				}
				var one [1]byte
				if _, err := client.Read(one[:]); err == nil {
					t.Fatalf("connection still open after bad length %d", n)
				}
				return
			}
			if uint64(len(rest)-4) < uint64(n) {
				return // a partial trailing frame: the gateway waits for the rest
			}
			reqOp := rest[4]
			op, p := readFrame(t, client)
			switch {
			case op == opError:
				if code, _, _ := errFrame(t, op, p); code < CodeBadFrame || code > CodeInternal {
					t.Fatalf("op %d answered unknown error code %d", reqOp, code)
				}
			case op != reqOp || (op != opResolve && op != opInvoke):
				t.Fatalf("op %d answered op %d", reqOp, op)
			}
			rest = rest[4+n:]
		}
		if len(rest) > 0 {
			return
		}
		resolveID(t, client, modeDefault, "get-time (p)")
	})
}
