package image_test

import (
	"strconv"
	"testing"

	"repro/internal/hup"
	"repro/internal/image"
	"repro/internal/uml"
)

// cloneImages returns the 274-file web content image and a 2,000-file
// image with the same service metadata, keyed by file count.
func cloneImages(tb testing.TB) map[int]*image.Image {
	small := hup.WebContentImage("web", 8)
	large := image.NewBuilder("web-large").
		WithService("/usr/sbin/httpd", 2<<20, 8080).
		WithWorkers(8).
		WithSystemServices(uml.ProfileBase()...).
		WithDataset(1989, 32<<10).
		MustBuild()
	imgs := map[int]*image.Image{small.RootFS.Len(): small, large.RootFS.Len(): large}
	if _, ok := imgs[274]; !ok {
		tb.Fatalf("web content image has %d files, want 274", small.RootFS.Len())
	}
	if _, ok := imgs[2000]; !ok {
		tb.Fatalf("large image has %d files, want 2000", large.RootFS.Len())
	}
	return imgs
}

// cloneAllocs is the exact allocation count of cloning a published
// image: the Image, its Tree header, and the SystemServices slice. The
// file map is shared copy-on-write, so file count must not matter.
const cloneAllocs = 3

// TestImageCloneAllocsIndependentOfFiles gates Image.Clone at exactly
// cloneAllocs allocations on 274 and 2,000 files, and Tree.SizeBytes at
// zero: priming must not pay per file of the master image.
func TestImageCloneAllocsIndependentOfFiles(t *testing.T) {
	var sink *image.Image
	var size int64
	for files, im := range cloneImages(t) {
		if a := testing.AllocsPerRun(100, func() { sink = im.Clone() }); a != cloneAllocs {
			t.Errorf("Image.Clone on %d files: %v allocs/op, want %d", files, a, cloneAllocs)
		}
		if a := testing.AllocsPerRun(100, func() { size += im.RootFS.SizeBytes() }); a != 0 {
			t.Errorf("Tree.SizeBytes on %d files: %v allocs/op, want 0", files, a)
		}
	}
	if sink == nil || size == 0 {
		t.Fatal("nothing cloned")
	}
}

// BenchmarkImageClone measures cloning a published image of 274 and
// 2,000 files; the two ns/op figures should match.
func BenchmarkImageClone(b *testing.B) {
	imgs := cloneImages(b)
	for _, files := range []int{274, 2000} {
		im := imgs[files]
		b.Run("files="+strconv.Itoa(files), func(b *testing.B) {
			b.ReportAllocs()
			var sink *image.Image
			for i := 0; i < b.N; i++ {
				sink = im.Clone()
			}
			_ = sink
		})
	}
}
