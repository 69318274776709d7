package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
)

// digest hashes named byte blobs independent of the order they are
// added in: each (name, content hash) pair is sorted by name before the
// final hash.
type digest struct {
	parts map[string][32]byte
}

func newDigest() *digest { return &digest{parts: map[string][32]byte{}} }

func (d *digest) add(name string, content []byte) { d.parts[name] = sha256.Sum256(content) }

// addFile adds the file at path under its name relative to root.
func (d *digest) addFile(root, path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return err
	}
	d.add(filepath.ToSlash(rel), b)
	return nil
}

func (d *digest) sum() string {
	names := make([]string, 0, len(d.parts))
	for n := range d.parts {
		names = append(names, n)
	}
	slices.Sort(names)
	h := sha256.New()
	for _, n := range names {
		sum := d.parts[n]
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
