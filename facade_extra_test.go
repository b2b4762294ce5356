package bridge

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"bridge/internal/core"
)

func TestFacadeMultiServer(t *testing.T) {
	sys, err := New(Config{Nodes: 4, Servers: 3, DiskLatency: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Run(func(s *Session) error {
		for i := 0; i < 9; i++ {
			name := fmt.Sprintf("f%d", i)
			if err := s.Create(name); err != nil {
				return err
			}
			if err := s.Append(name, []byte(name)); err != nil {
				return err
			}
		}
		for i := 0; i < 9; i++ {
			name := fmt.Sprintf("f%d", i)
			data, err := s.ReadAt(name, 0)
			if err != nil || string(data) != name {
				return fmt.Errorf("read %s = %q, %v", name, data, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeCustomTool(t *testing.T) {
	// Build a checksum tool directly on the public API: each worker
	// CRCs its node's column locally; the controller combines.
	sys := fastSystem(t, 4)
	err := sys.Run(func(s *Session) error {
		if err := s.Create("data"); err != nil {
			return err
		}
		var want uint32
		for i := 0; i < 24; i++ {
			payload := []byte(fmt.Sprintf("payload-%02d", i))
			want ^= crc32.ChecksumIEEE(payload)
			if err := s.Append("data", payload); err != nil {
				return err
			}
		}
		meta, err := s.Open("data")
		if err != nil {
			return err
		}
		results, err := s.RunTool("crc", func(ctx *ToolCtx) (any, error) {
			var acc uint32
			local := meta.LocalBlocks(ctx.Index)
			hint := int32(-1)
			for j := int64(0); j < local; j++ {
				raw, addr, err := ctx.LFS.Read(ctx.Node, meta.LFSFileID, uint32(j), hint)
				if err != nil {
					return nil, err
				}
				hint = addr
				_, payload, err := core.DecodeBlock(raw)
				if err != nil {
					return nil, err
				}
				acc ^= crc32.ChecksumIEEE(payload)
			}
			return acc, nil
		})
		if err != nil {
			return err
		}
		var got uint32
		for _, r := range results {
			got ^= r.(uint32)
		}
		if got != want {
			return fmt.Errorf("tool checksum %08x, want %08x", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeParallelJobHelpers(t *testing.T) {
	sys := fastSystem(t, 4)
	err := sys.Run(func(s *Session) error {
		// Write via a parallel job, read back both ways.
		blocks := make([][]byte, 11) // odd count exercises the EOF round
		for i := range blocks {
			blocks[i] = []byte(fmt.Sprintf("pj-%02d", i))
		}
		if err := s.Create("pj"); err != nil {
			return err
		}
		if err := s.ParallelAppend("pj", 4, blocks); err != nil {
			return err
		}
		got, err := s.ParallelReadAll("pj", 4)
		if err != nil {
			return err
		}
		if len(got) != len(blocks) {
			return fmt.Errorf("ParallelReadAll = %d blocks, want %d", len(got), len(blocks))
		}
		for i := range blocks {
			if !bytes.Equal(got[i], blocks[i]) {
				return fmt.Errorf("block %d = %q, want %q", i, got[i], blocks[i])
			}
		}
		// Width above p exercises virtual parallelism.
		got, err = s.ParallelReadAll("pj", 9)
		if err != nil || len(got) != len(blocks) {
			return fmt.Errorf("wide ParallelReadAll = %d, %v", len(got), err)
		}
		// And the naive view agrees.
		all, err := s.ReadAll("pj")
		if err != nil || len(all) != len(blocks) {
			return fmt.Errorf("ReadAll = %d, %v", len(all), err)
		}
		// Empty append is a no-op.
		if err := s.Create("pj0"); err != nil {
			return err
		}
		if err := s.ParallelAppend("pj0", 3, nil); err != nil {
			return err
		}
		if info, _ := s.Stat("pj0"); info.Blocks != 0 {
			return fmt.Errorf("empty parallel append produced %d blocks", info.Blocks)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFacadeDisordered(t *testing.T) {
	sys := fastSystem(t, 4)
	err := sys.Run(func(s *Session) error {
		info, err := s.CreateDisordered("chain")
		if err != nil {
			return err
		}
		if info.Chain == nil {
			return fmt.Errorf("no chain info: %+v", info)
		}
		for i := 0; i < 10; i++ {
			if err := s.Append("chain", []byte{byte(i)}); err != nil {
				return err
			}
		}
		all, err := s.ReadAll("chain")
		if err != nil || len(all) != 10 {
			return fmt.Errorf("ReadAll = %d, %v", len(all), err)
		}
		for i, b := range all {
			if b[0] != byte(i) {
				return fmt.Errorf("block %d corrupt", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
