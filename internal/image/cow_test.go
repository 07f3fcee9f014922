package image

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// cowCase is one tree under test and the plain map it must match.
type cowCase struct {
	name string
	tree *Tree
	ref  map[string]File
}

func (c *cowCase) check(t *testing.T, step int) {
	t.Helper()
	want := make([]File, 0, len(c.ref))
	for _, f := range c.ref {
		want = append(want, f)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Path < want[j].Path })
	got := c.tree.List()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: %s lists %v, reference %v", step, c.name, got, want)
	}
	var sum int64
	for _, f := range got {
		sum += f.SizeBytes
	}
	if c.tree.SizeBytes() != sum {
		t.Fatalf("step %d: %s SizeBytes = %d, files sum to %d", step, c.name, c.tree.SizeBytes(), sum)
	}
}

// mutate applies one random Add, Remove or RemovePrefix to the tree and
// the same edit to its reference map.
func (c *cowCase) mutate(t *testing.T, rng *rand.Rand) {
	t.Helper()
	dirs := []string{"/etc/init.d", "/usr/lib/sshd", "/usr/lib/pad", "/var/www/data"}
	dir := dirs[rng.IntN(len(dirs))]
	p := fmt.Sprintf("%s/f%d", dir, rng.IntN(6))
	switch rng.IntN(4) {
	case 0, 1:
		size, exec := rng.Int64N(1<<20), rng.IntN(2) == 0
		c.tree.MustAdd(p, size, exec)
		c.ref[p] = File{Path: p, SizeBytes: size, Executable: exec}
	case 2:
		_, existed := c.ref[p]
		if c.tree.Remove(p) != existed {
			t.Fatalf("%s: Remove(%s) disagrees with the reference", c.name, p)
		}
		delete(c.ref, p)
	case 3:
		var n int
		var bytes int64
		for q, f := range c.ref {
			if strings.HasPrefix(q, dir+"/") {
				n++
				bytes += f.SizeBytes
				delete(c.ref, q)
			}
		}
		if gn, gb := c.tree.RemovePrefix(dir); gn != n || gb != bytes {
			t.Fatalf("%s: RemovePrefix(%s) = %d, %d; reference %d, %d", c.name, dir, gn, gb, n, bytes)
		}
	}
}

// TestTreeCopyOnWriteDifferential drives seeded random edits through a
// sealed original, its clones, and clones of clones, and checks every
// tree against a deep-copied reference map after each step. While only
// clones are written, the original's checksum must not move.
func TestTreeCopyOnWriteDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		orig := NewBuilder("diff").
			WithService("/usr/sbin/httpd", 1<<20, 80).
			WithSystemServices("network", "sshd").
			WithFile("/usr/lib/sshd/f0", 4096).
			WithDataset(4, 1024).
			MustBuild()
		sum := orig.Checksum
		cases := []*cowCase{{name: "original", tree: orig.RootFS, ref: maps.Clone(orig.RootFS.files)}}
		for step := 0; step < 300; step++ {
			writeOriginal := step >= 200
			if len(cases) < 12 && rng.IntN(5) == 0 {
				src := cases[rng.IntN(len(cases))]
				cases = append(cases, &cowCase{
					name: fmt.Sprintf("clone%d(%s)", len(cases), src.name),
					tree: src.tree.Clone(),
					ref:  maps.Clone(src.ref),
				})
			} else if writeOriginal {
				cases[rng.IntN(len(cases))].mutate(t, rng)
			} else if len(cases) > 1 {
				cases[1+rng.IntN(len(cases)-1)].mutate(t, rng)
			}
			for _, c := range cases {
				c.check(t, step)
			}
			if !writeOriginal && orig.ComputeChecksum() != sum {
				t.Fatalf("seed %d step %d: writing clones changed the original's checksum", seed, step)
			}
		}
	}
}
