package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const testMagic = "p2ptst01"

// TestWriteGolden pins the frame bytes: the WAL's segments and snapshots
// written before this package existed must keep recovering, so the layout
// (length, CRC-32 IEEE, payload; little-endian) may never drift.
func TestWriteGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []byte("\x02golden payload")); err != nil {
		t.Fatal(err)
	}
	const want = "0f000000f81ecaf702676f6c64656e207061796c6f6164"
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("frame bytes\n got %s\nwant %s", got, want)
	}
	if got := appendFrame([]byte("x"), []byte("\x02golden payload")); hex.EncodeToString(got[1:]) != want {
		t.Fatalf("appendFrame bytes %x, want %s", got[1:], want)
	}
	p, err := Read(&buf)
	if err != nil || string(p) != "\x02golden payload" {
		t.Fatalf("Read = %q, %v", p, err)
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Fatalf("Read at end = %v, want io.EOF", err)
	}
}

func TestWriteRefusesEmptyPayload(t *testing.T) {
	if err := Write(io.Discard, nil); err == nil {
		t.Fatal("an empty frame reads back as torn; Write must refuse it")
	}
	l, err := OpenLog(filepath.Join(t.TempDir(), "log"), testMagic, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(nil, false); err == nil {
		t.Fatal("Log.Append must refuse an empty payload")
	}
}

// collect opens the log at path and returns it with every replayed payload.
func collect(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := OpenLog(path, testMagic, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

func TestLogAppendReopenRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, got := collect(t, path)
	if len(got) != 0 || l.Count() != 0 {
		t.Fatalf("fresh log replayed %v (count %d)", got, l.Count())
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprint("e", i)), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l, got = collect(t, path)
	if want := []string{"e0", "e1", "e2", "e3", "e4"}; !reflect.DeepEqual(got, want) || l.Count() != 5 {
		t.Fatalf("reopen replayed %v (count %d), want %v", got, l.Count(), want)
	}
	if err := l.Rewrite([][]byte{[]byte("r0"), []byte("r1")}); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 2 {
		t.Fatalf("count after rewrite = %d", l.Count())
	}
	if err := l.Append([]byte("r2"), true); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("rewrite left its tmp file behind: %v", err)
	}
	l, got = collect(t, path)
	defer l.Close()
	if want := []string{"r0", "r1", "r2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after rewrite replayed %v, want %v", got, want)
	}
}

// TestLogStopsAtRejectedPayload: a CRC-valid frame the caller cannot decode
// ends the prefix like a torn one, and is truncated so appends follow the
// last accepted entry.
func TestLogStopsAtRejectedPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := collect(t, path)
	for _, p := range []string{"ok1", "bad", "ok2"} {
		if err := l.Append([]byte(p), false); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	var got []string
	l, err := OpenLog(path, testMagic, func(p []byte) error {
		if string(p) == "bad" {
			return errors.New("undecodable")
		}
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("ok3"), false); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if !reflect.DeepEqual(got, []string{"ok1"}) {
		t.Fatalf("replayed %v, want [ok1]", got)
	}
	l, got = collect(t, path)
	l.Close()
	if !reflect.DeepEqual(got, []string{"ok1", "ok3"}) {
		t.Fatalf("after truncation replayed %v, want [ok1 ok3]", got)
	}
}

func TestLogRefusesForeignHeader(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"other-magic":  "p2pzzz01" + strings.Repeat("x", 20),
		"short-header": "p2p",
		"length-gob":   "\x0c\x00\x00\x00" + strings.Repeat("g", 12),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenLog(path, testMagic, func([]byte) error { return nil }); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: OpenLog = %v, want an error naming the path", name, err)
		}
		if b, _ := os.ReadFile(path); string(b) != content {
			t.Errorf("%s: refused file was modified", name)
		}
	}
	// An empty file is a log whose creation never wrote anything: adopt it.
	path := filepath.Join(dir, "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got := collect(t, path)
	l.Close()
	if len(got) != 0 {
		t.Fatalf("empty file replayed %v", got)
	}
	if b, _ := os.ReadFile(path); string(b) != testMagic {
		t.Fatalf("empty file not initialised with the header: %q", b)
	}
}

// refFrames is an independent reference parser: the payloads of the valid
// frame prefix of b and the byte length of that prefix.
func refFrames(b []byte) (out []string, n int) {
	for len(b)-n >= 8 {
		size := int(binary.LittleEndian.Uint32(b[n:]))
		sum := binary.LittleEndian.Uint32(b[n+4:])
		if size == 0 || size > len(b)-n-8 || crc32.ChecksumIEEE(b[n+8:n+8+size]) != sum {
			break
		}
		out = append(out, string(b[n+8:n+8+size]))
		n += 8 + size
	}
	return out, n
}

// FuzzFrameLogReplay appends arbitrary bytes after a log's valid frames:
// OpenLog must replay exactly the file's valid frame prefix (the originals,
// plus any frames the suffix happens to spell), truncate the rest, and stay
// appendable — a frame appended afterwards replays right behind the prefix.
func FuzzFrameLogReplay(f *testing.F) {
	f.Add(uint8(3), []byte{})
	f.Add(uint8(2), []byte{0x05, 0x00})
	f.Add(uint8(1), []byte{0x04, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'a', 'b', 'c', 'd'})
	f.Add(uint8(0), appendFrame(nil, []byte("spelled")))
	f.Add(uint8(4), append(appendFrame(nil, []byte("ok")), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, n uint8, tail []byte) {
		path := filepath.Join(t.TempDir(), "log")
		l, _ := collect(t, path)
		var want []string
		for i := 0; i < int(n%8); i++ {
			p := fmt.Sprintf("entry-%d-%s", i, strings.Repeat("v", i))
			want = append(want, p)
			if err := l.Append([]byte(p), false); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(tail); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		extra, good := refFrames(tail)
		want = append(want, extra...)

		l, got := collect(t, path)
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("replayed %q, want %q", got, want)
		}
		if err := l.Append([]byte("after"), false); err != nil {
			t.Fatal(err)
		}
		l.Close()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		body := len(testMagic) + good
		for _, p := range want[:len(want)-len(extra)] {
			body += Overhead + len(p)
		}
		if st.Size() != int64(body+Overhead+len("after")) {
			t.Fatalf("file is %d bytes, want valid prefix %d + one frame", st.Size(), body)
		}
		l, got = collect(t, path)
		l.Close()
		if want = append(want, "after"); !reflect.DeepEqual(got, want) {
			t.Fatalf("after append replayed %q, want %q", got, want)
		}
	})
}

// BenchmarkFrameLogAppend measures one appended frame of an acceptor-vote
// sized payload, without and with the per-append fsync votes pay.
func BenchmarkFrameLogAppend(b *testing.B) {
	payload := bytes.Repeat([]byte{0xab}, 120)
	for _, sync := range []bool{false, true} {
		b.Run(map[bool]string{false: "nosync", true: "fsync"}[sync], func(b *testing.B) {
			l, err := OpenLog(filepath.Join(b.TempDir(), "log"), testMagic, func([]byte) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.SetBytes(int64(len(payload) + Overhead))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(payload, sync); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
