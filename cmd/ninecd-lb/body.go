package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
)

// maxPresize bounds how much of a declared Content-Length readBody
// allocates before the bytes arrive: a client may declare anything up
// to -max-body and then send nothing, so past 1 MiB the buffer grows
// only with what has actually been read.
const maxPresize = 1 << 20

// maxPooledBody is the largest body buffer released to bodyPool: every
// buffer readBody presizes fits, and one grown past it by a larger body
// is dropped, so a rare large request does not pin its memory.
const maxPooledBody = maxPresize + bytes.MinRead

// body is one request body read by readBody, shared by the handler and
// every send of it to a backend. Each holder owns one reference, and
// the last release returns the buffer to bodyPool. A send's reference
// is dropped by its reader's Close, which http.Transport calls once it
// is done with the body: that may be after RoundTrip has returned,
// when a backend answers before it has read the whole request.
type body struct {
	buf      []byte
	refs     atomic.Int32
	released func([]byte) // lb.bodyReleased at the time of reading
}

var bodyPool = sync.Pool{New: func() any { return new(body) }}

// newBody takes a body from the pool, holding the caller's reference.
func (l *lb) newBody() *body {
	b := bodyPool.Get().(*body)
	b.refs.Store(1)
	b.released = l.bodyReleased
	return b
}

// release drops one reference; the last returns the body to the pool.
func (b *body) release() {
	switch n := b.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("ninecd-lb: request body released more often than it was referenced")
	}
	if b.released != nil {
		b.released(b.buf)
	}
	if cap(b.buf) > maxPooledBody {
		return
	}
	b.buf = b.buf[:0]
	bodyPool.Put(b)
}

// reader returns a reader over the body for one send, holding a
// reference until its Close.
func (b *body) reader() io.ReadCloser {
	b.refs.Add(1)
	return &bodyReader{b: b}
}

var errBodyClosed = errors.New("ninecd-lb: read of a closed request body")

// bodyReader is one send of a body. Read and Close exclude each other:
// http.Transport may close a request body from another goroutine while
// its writer still reads it, and a read after the release could see a
// buffer that another request already reuses.
type bodyReader struct {
	mu  sync.Mutex
	b   *body // nil once closed
	off int
}

func (r *bodyReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.b == nil {
		return 0, errBodyClosed
	}
	if r.off == len(r.b.buf) {
		return 0, io.EOF
	}
	n := copy(p, r.b.buf[r.off:])
	r.off += n
	return n, nil
}

// Close drops the send's reference; later calls do nothing.
func (r *bodyReader) Close() error {
	r.mu.Lock()
	b := r.b
	r.b = nil
	r.mu.Unlock()
	if b != nil {
		b.release()
	}
	return nil
}

// readBody reads the whole request body into a pooled body under the
// lb's cap: a declared length past the cap is a 413 before any byte is
// read, a longer body a 413 once the cap is crossed, and a failed read
// a 400 — net/http fails the read of a body that ends short of its
// declared length with io.ErrUnexpectedEOF. Forwarding needs the body
// whole, because a failover resends it to the next ring successor. The
// caller owns one reference and releases it when done.
func (l *lb) readBody(w http.ResponseWriter, r *http.Request) (*body, bool) {
	if r.ContentLength > l.maxBody {
		http.Error(w, "request body exceeds limit", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	b := l.newBody()
	// Every read has bytes.MinRead free, so a buffer that fits the
	// declared length plus MinRead never regrows.
	buf := slices.Grow(b.buf, int(max(min(r.ContentLength, maxPresize), 0))+bytes.MinRead)
	src := io.LimitedReader{R: r.Body, N: l.maxBody + 1}
	for {
		if cap(buf)-len(buf) < bytes.MinRead {
			buf = slices.Grow(buf, bytes.MinRead)
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			b.buf = buf
			b.release()
			http.Error(w, "reading request body", http.StatusBadRequest)
			return nil, false
		}
	}
	b.buf = buf
	if int64(len(buf)) > l.maxBody {
		b.release()
		http.Error(w, "request body exceeds limit", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return b, true
}

// sendBufSize is the copy buffer a backend connection writes a request
// body through: one write for a body of up to this size.
const sendBufSize = 256 << 10

// relayBufSize is the copy buffer a backend's answer is relayed
// through, the size io.Copy would allocate.
const relayBufSize = 32 << 10

var (
	sendBufPool  = sync.Pool{New: func() any { b := make([]byte, sendBufSize); return &b }}
	relayBufPool = sync.Pool{New: func() any { b := make([]byte, relayBufSize); return &b }}
)

// writerOnly hides a writer's ReadFrom from io.CopyBuffer, so the copy
// runs through the buffer it is given.
type writerOnly struct{ io.Writer }

// sendConn is a backend connection whose ReadFrom, through which
// http.Transport writes a request body that is not a bytes or strings
// reader, copies through a pooled buffer: net.TCPConn's own ReadFrom
// allocates a fresh 32 KiB buffer for every such body.
type sendConn struct{ net.Conn }

func (c sendConn) ReadFrom(r io.Reader) (int64, error) {
	buf := sendBufPool.Get().(*[]byte)
	defer sendBufPool.Put(buf)
	return io.CopyBuffer(writerOnly{c.Conn}, r, *buf)
}
