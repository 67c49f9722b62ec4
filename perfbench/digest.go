package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"rcbcast/internal/engine"
	"rcbcast/internal/sim/sink"
)

// reference is the expected merged output of one sweep: its bytes,
// their digest, and the byte offset at which each shard's lines end.
type reference struct {
	data     []byte
	digest   string
	bytes    int64
	shardEnd []int64
}

// shard returns the expected bytes of shard k.
func (ref reference) shard(k int) []byte {
	lo := int64(0)
	if k > 0 {
		lo = ref.shardEnd[k-1]
	}
	return ref.data[lo:ref.shardEnd[k]]
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// refSink builds a reference: the NDJSON bytes, with the offset
// recorded after each shard's last trial.
type refSink struct {
	buf       bytes.Buffer
	nd        *sink.NDJSON
	shardSize int
	ends      []int64
}

func newRefSink(shardSize int) *refSink {
	s := &refSink{shardSize: shardSize}
	s.nd = sink.NewNDJSON(&s.buf)
	return s
}

func (s *refSink) Trial(i int, r *engine.Result) error {
	if err := s.nd.Trial(i, r); err != nil {
		return err
	}
	if (i+1)%s.shardSize == 0 {
		s.ends = append(s.ends, int64(s.buf.Len()))
	}
	return nil
}

func (s *refSink) Flush() error { return s.nd.Flush() }

// result finishes the reference for a sweep of the given trial count.
func (s *refSink) result(trials int) reference {
	data := s.buf.Bytes()
	ends := s.ends
	if trials%s.shardSize != 0 {
		ends = append(ends, int64(len(data)))
	}
	return reference{data: data, digest: digest(data), bytes: int64(len(data)), shardEnd: ends}
}

// check compares produced bytes with the reference.
func (ref reference) check(what string, digest string, n int64) error {
	if digest != ref.digest || n != ref.bytes {
		return fmt.Errorf("%s: output digest %s (%d bytes) differs from the reference %s (%d bytes)",
			what, short(digest), n, short(ref.digest), ref.bytes)
	}
	return nil
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// digestFile hashes a file's contents.
func digestFile(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}
