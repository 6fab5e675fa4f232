package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"unsafe"

	"repro/internal/tensor"
	"repro/internal/video"
)

// segmentFrames is the length of one clip. The client's stream is a run of
// independent clips of its category, each from its own seed, so one run
// averages over many scenes instead of resting on a single draw.
const segmentFrames = 64

// frameArena holds the pre-generated frames outside the Go heap. On the
// heap they would count as the program's memory and, as live data, stretch
// the garbage collector's heap target, so the program would collect less
// often than it does without them.
type frameArena struct {
	mem []byte
	off int
}

func newFrameArena(bytes int) (*frameArena, error) {
	mem, err := syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes for frames: %w", bytes, err)
	}
	return &frameArena{mem: mem}, nil
}

// take returns the next n 4-byte words of the arena.
func (a *frameArena) take(n int) unsafe.Pointer {
	p := unsafe.Pointer(&a.mem[a.off])
	a.off += 4 * n
	return p
}

// copyFrame moves a generated frame into the arena.
func (a *frameArena) copyFrame(f video.Frame) video.Frame {
	img := unsafe.Slice((*float32)(a.take(f.Image.Len())), f.Image.Len())
	copy(img, f.Image.Data)
	label := unsafe.Slice((*int32)(a.take(len(f.Label))), len(f.Label))
	copy(label, f.Label)
	return video.Frame{Index: f.Index, Image: tensor.FromSlice(img, f.Image.Shape()...), Label: label}
}

// bytes is the arena's size, all of it resident once the frames are written.
func (a *frameArena) bytes() int { return len(a.mem) }

// close unmaps the arena; no frame may be used afterwards.
func (a *frameArena) close() error { return syscall.Munmap(a.mem) }

// genFrames renders n frames of the workloads' stream from the seed into an
// arena before anything is timed. Frame i has index i.
func genFrames(seed int64, n int) ([]video.Frame, *frameArena, error) {
	arena, err := newFrameArena(4 * n * (3 + 1) * video.DefaultH * video.DefaultW)
	if err != nil {
		return nil, nil, err
	}
	seeds := rand.New(rand.NewSource(seed * 131))
	fs := make([]video.Frame, n)
	var g *video.Generator
	for i := range fs {
		if i%segmentFrames == 0 {
			if g, err = video.NewGenerator(video.CategoryConfig(stream, seeds.Int63())); err != nil {
				arena.close()
				return nil, nil, err
			}
		}
		f := g.Next()
		f.Index = i
		fs[i] = arena.copyFrame(f)
	}
	return fs, arena, nil
}
