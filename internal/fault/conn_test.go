package fault

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipe returns both ends of an in-memory connection with a deadline, so
// a wrapper that fails to sever the conn fails the test instead of
// hanging it.
func pipe(t *testing.T) (near, peer net.Conn) {
	t.Helper()
	near, peer = net.Pipe()
	t.Cleanup(func() {
		_ = near.Close()
		_ = peer.Close()
	})
	deadline := time.Now().Add(5 * time.Second)
	if err := near.SetDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	if err := peer.SetDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	return near, peer
}

func TestWrapConnNilRegistryIsIdentity(t *testing.T) {
	c, _ := pipe(t)
	if got := WrapConn(c, nil); got != c {
		t.Fatalf("WrapConn(c, nil) = %T, want c itself", got)
	}
}

func TestConnReadErrorClosesConn(t *testing.T) {
	near, peer := pipe(t)
	reg := New(1)
	reg.MustAdd(Rule{Point: "conn.read", Nth: 1, Act: ActError})
	n, err := WrapConn(near, reg).Read(make([]byte, 8))
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("Read = %d, %v; want 0 and the injected error", n, err)
	}
	if _, err := peer.Read(make([]byte, 8)); err != io.EOF {
		t.Fatalf("peer Read after the injected error: %v, want EOF", err)
	}
}

// writeThenRead writes "hello" and then "abcdefgh" through the wrapped
// conn, where rule fires on the second write, and returns that write's
// count, every byte the peer read before EOF, and that write's error.
func writeThenRead(t *testing.T, rule Rule) (int, string, error) {
	t.Helper()
	near, peer := pipe(t)
	reg := New(1)
	reg.MustAdd(rule)
	type read struct {
		b   []byte
		err error
	}
	got := make(chan read, 1)
	go func() {
		b, err := io.ReadAll(peer)
		got <- read{b, err}
	}()
	c := WrapConn(near, reg)
	if n, err := c.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("unfaulted Write = %d, %v; want 5, nil", n, err)
	}
	n, err := c.Write([]byte("abcdefgh"))
	r := <-got
	if r.err != nil {
		t.Fatalf("peer ReadAll: %v", r.err)
	}
	return n, string(r.b), err
}

func TestConnWriteShortDeliversPrefix(t *testing.T) {
	n, got, err := writeThenRead(t, Rule{Point: "conn.write", Nth: 2, Act: ActShort, Bytes: 3})
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short Write = %d, %v; want 3 and the injected error", n, err)
	}
	if got != "helloabc" {
		t.Fatalf("peer read %q, want %q and then EOF", got, "helloabc")
	}
}

func TestConnWriteErrorDeliversNothing(t *testing.T) {
	n, got, err := writeThenRead(t, Rule{Point: "conn.write", Nth: 2, Act: ActError})
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("failed Write = %d, %v; want 0 and the injected error", n, err)
	}
	if got != "hello" {
		t.Fatalf("peer read %q, want %q and then EOF", got, "hello")
	}
}
