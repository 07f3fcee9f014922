package uml

import (
	"sync"
	"testing"
)

// TestConcurrentCloneAndTailor has 8 goroutines clone one published
// image and tailor their clones at the same time, all reading the shared
// service catalog. Under -race this proves Clone never writes the
// published tree; in any build it proves each tailoring stays private.
func TestConcurrentCloneAndTailor(t *testing.T) {
	img := testImage(ProfileFullServer(), 40)
	img.RootFS.MustAdd("/usr/lib/sendmail/libmilter.so", 1<<20, false)
	img.Seal()
	want := img.Checksum
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := img.Clone()
			if _, err := Tailor(standardCatalog, c.RootFS, ProfileFullServer(), []string{"httpd"}); err != nil {
				t.Error(err)
				return
			}
			if c.RootFS.Contains("/etc/init.d/sendmail") || c.RootFS.Contains("/usr/lib/sendmail/libmilter.so") {
				t.Error("tailoring left sendmail in the clone")
			}
			if c.SizeBytes() >= img.SizeBytes() {
				t.Errorf("tailored clone is %d bytes, master %d", c.SizeBytes(), img.SizeBytes())
			}
		}()
	}
	wg.Wait()
	if img.ComputeChecksum() != want || !img.RootFS.Contains("/etc/init.d/sendmail") {
		t.Fatal("tailoring a clone changed the published image")
	}
}
