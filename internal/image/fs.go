// Package image models application service images: root file systems
// packaged by the ASP (the paper assumes RPM packaging, §4.3), the
// ASP-side image repository, and the HTTP/1.1 download performed by the
// SODA Daemon during service priming.
package image

import (
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"
)

// File is one entry in a root file system tree.
type File struct {
	// Path is the absolute path within the image ("/etc/init.d/httpd").
	Path string
	// SizeBytes is the file's size.
	SizeBytes int64
	// Executable marks binaries and init scripts.
	Executable bool
}

// Tree is an in-memory root file system: the unit the SODA Daemon
// downloads, tailors, and hands to the UML as its root. Paths are unique;
// directories are implicit.
//
// A shared tree is copy-on-write: its clones share its file map, and
// whichever tree writes first copies the map. Files are stored by value,
// so no tree can change another's file through a pointer.
type Tree struct {
	files  map[string]File
	bytes  int64 // running total of every file's size
	shared bool  // files may be another tree's too; copy before writing
}

// NewTree returns an empty file system.
func NewTree() *Tree {
	return &Tree{files: make(map[string]File)}
}

// own gives t a private file map ahead of a write.
func (t *Tree) own() {
	if t.shared {
		t.files = maps.Clone(t.files)
		t.shared = false
	}
}

// Add inserts a file, normalising the path. Duplicate paths are replaced.
func (t *Tree) Add(p string, size int64, executable bool) error {
	cp, err := cleanPath(p)
	if err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("image: negative size for %s", cp)
	}
	t.own()
	t.bytes += size - t.files[cp].SizeBytes
	t.files[cp] = File{Path: cp, SizeBytes: size, Executable: executable}
	return nil
}

// MustAdd is Add, panicking on error; for building fixed images.
func (t *Tree) MustAdd(p string, size int64, executable bool) {
	if err := t.Add(p, size, executable); err != nil {
		panic(err)
	}
}

func cleanPath(p string) (string, error) {
	if !strings.HasPrefix(p, "/") {
		return "", fmt.Errorf("image: path %q is not absolute", p)
	}
	cp := path.Clean(p)
	if cp == "/" {
		return "", fmt.Errorf("image: path %q names the root", p)
	}
	return cp, nil
}

// Remove deletes a file, reporting whether it existed.
func (t *Tree) Remove(p string) bool {
	cp, err := cleanPath(p)
	if err != nil {
		return false
	}
	f, ok := t.files[cp]
	if !ok {
		return false
	}
	t.own()
	t.bytes -= f.SizeBytes
	delete(t.files, cp)
	return true
}

// RemovePrefix deletes every file under the directory prefix, returning
// the number removed and the bytes reclaimed. A prefix that matches
// nothing copies nothing.
func (t *Tree) RemovePrefix(dir string) (int, int64) {
	cp, err := cleanPath(dir)
	if err != nil {
		return 0, 0
	}
	prefix := cp + "/"
	var n int
	var bytes int64
	for p, f := range t.files {
		if p == cp || strings.HasPrefix(p, prefix) {
			t.own() // the range keeps walking the map it started on
			n++
			bytes += f.SizeBytes
			delete(t.files, p)
		}
	}
	t.bytes -= bytes
	return n, bytes
}

// Lookup returns the file at p and whether it exists.
func (t *Tree) Lookup(p string) (File, bool) {
	cp, err := cleanPath(p)
	if err != nil {
		return File{}, false
	}
	f, ok := t.files[cp]
	return f, ok
}

// Contains reports whether the tree holds a file at p.
func (t *Tree) Contains(p string) bool {
	_, ok := t.Lookup(p)
	return ok
}

// Len returns the number of files.
func (t *Tree) Len() int { return len(t.files) }

// SizeBytes returns the total size of all files.
func (t *Tree) SizeBytes() int64 { return t.bytes }

// SizeMB returns the total size in whole MiB, rounding up.
func (t *Tree) SizeMB() int {
	const mb = 1 << 20
	return int((t.SizeBytes() + mb - 1) / mb)
}

// List returns every file sorted by path.
func (t *Tree) List() []File {
	out := make([]File, 0, len(t.files))
	for _, f := range t.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// ListDir returns the files directly or transitively under dir, sorted.
func (t *Tree) ListDir(dir string) []File {
	cp, err := cleanPath(dir)
	if err != nil {
		return nil
	}
	prefix := cp + "/"
	var out []File
	for p, f := range t.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Clone returns an independent copy — tailoring operates on a copy so the
// downloaded master image can prime multiple virtual service nodes. A
// shared tree is cloned in O(1), an unshared one copied eagerly. Clone
// never writes its receiver, so concurrent clones are race-free.
func (t *Tree) Clone() *Tree {
	if t.shared {
		return &Tree{files: t.files, bytes: t.bytes, shared: true}
	}
	return &Tree{files: maps.Clone(t.files), bytes: t.bytes}
}
