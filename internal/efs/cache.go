package efs

// blockCache is the LRU cache of recently-accessed blocks the paper
// describes: "a cache of recently-accessed blocks makes sequential access
// more efficient by keeping neighboring blocks (and their pointers) in
// memory". Whole tracks are inserted on read misses (full-track buffering).
//
// The cache also feeds the block-location map: whenever a used data block
// enters the cache, its (file, block-number) → disk-address mapping is
// learned, so later lookups can skip the linked-list walk.
//
// Entries live in a slab linked by index: the slab grows on demand up to
// the capacity and evicted or invalidated slots are reused, so steady-state
// get and put allocate nothing.
type blockCache struct {
	cap     int
	entries []cacheEntry
	m       map[int32]int32 // address → slot in entries
	head    int32           // most recently used slot, or -1
	tail    int32           // least recently used slot, or -1
	free    int32           // first free slot (linked through next), or -1
}

type cacheEntry struct {
	addr       int32
	prev, next int32 // LRU neighbours (towards head, towards tail), or -1
	// data is the block image, shared and read-only: the cache adopts the
	// slice put hands it and get returns it as is (see DESIGN.md, "Block
	// buffer ownership").
	data   []byte
	key    fileKey
	hasKey bool
}

type fileKey struct {
	fileID   uint32
	blockNum uint32
}

func newBlockCache(capacity int) *blockCache {
	if capacity < 1 {
		capacity = 1
	}
	return &blockCache{cap: capacity, m: make(map[int32]int32), head: -1, tail: -1, free: -1}
}

// get returns the cached block image, if present. The caller must not
// modify it.
func (c *blockCache) get(addr int32) ([]byte, bool) {
	i, ok := c.m[addr]
	if !ok {
		return nil, false
	}
	c.moveToFront(i)
	return c.entries[i].data, true
}

// put inserts or refreshes a block, adopting data as its image: the caller
// must not modify data afterwards. It returns the location key of any
// evicted used block so the owner can drop its location-map entry, plus
// the location key learned from the inserted block (if it is a used data
// block).
func (c *blockCache) put(addr int32, data []byte) (evicted fileKey, hasEvicted bool, learned fileKey, hasLearned bool) {
	h := decodeHeader(data)
	var key fileKey
	hasKey := h.Flags&flagUsed != 0 && h.Flags&flagDirOverflow == 0
	if hasKey {
		key = fileKey{fileID: h.FileID, blockNum: h.BlockNum}
		learned, hasLearned = key, true
	}
	if i, ok := c.m[addr]; ok {
		e := &c.entries[i]
		// The block may have changed identity (freed, reallocated).
		if e.hasKey && (!hasKey || e.key != key) {
			evicted, hasEvicted = e.key, true
		}
		e.data, e.key, e.hasKey = data, key, hasKey
		c.moveToFront(i)
		return evicted, hasEvicted, learned, hasLearned
	}
	var i int32
	switch {
	case c.free >= 0:
		i = c.free
		c.free = c.entries[i].next
	case len(c.entries) < c.cap:
		i = int32(len(c.entries))
		c.entries = append(c.entries, cacheEntry{})
	default:
		// Full: the least recently used block makes room.
		i = c.tail
		old := &c.entries[i]
		if old.hasKey {
			evicted, hasEvicted = old.key, true
		}
		delete(c.m, old.addr)
		c.unlink(i)
	}
	c.entries[i] = cacheEntry{addr: addr, data: data, key: key, hasKey: hasKey}
	c.pushFront(i)
	c.m[addr] = i
	return evicted, hasEvicted, learned, hasLearned
}

// invalidate drops a block, returning its location key if it had one.
func (c *blockCache) invalidate(addr int32) (fileKey, bool) {
	i, ok := c.m[addr]
	if !ok {
		return fileKey{}, false
	}
	e := c.entries[i]
	delete(c.m, addr)
	c.unlink(i)
	c.entries[i] = cacheEntry{next: c.free}
	c.free = i
	if e.hasKey {
		return e.key, true
	}
	return fileKey{}, false
}

// len returns the number of cached blocks.
func (c *blockCache) len() int { return len(c.m) }

func (c *blockCache) unlink(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *blockCache) pushFront(i int32) {
	e := &c.entries[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *blockCache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}
