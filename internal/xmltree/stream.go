package xmltree

// Record-chunked streaming: StreamParser walks a document with the byte
// tokenizer (fastparse.go) and hands out each completed top-level
// subtree (a child of the document element) as soon as its end tag
// arrives, so a caller can process a multi-gigabyte export without ever
// materializing more than one record at a time. The parser drives the
// exact same tokenizer and tokenBuilder as Parse — whitespace dropping,
// text merging, namespace restoration, depth caps, well-formedness
// checks and the encoding/xml hand-off are shared code, which is what
// makes chunked processing semantically identical to whole-document
// parsing.

import "io"

// StreamEventKind discriminates StreamParser events.
type StreamEventKind uint8

const (
	// EventDocItem is a document-level node outside the document element
	// (a kept comment or processing instruction before or after the
	// root). Node is detached.
	EventDocItem StreamEventKind = iota
	// EventRootOpen reports the document element: Node is the element
	// with its attributes (including namespace declarations) but no
	// children yet. The parser retains it as the namespace-resolution
	// context for the items that follow; callers must not mutate it
	// while streaming.
	EventRootOpen
	// EventItem is one completed child of the document element — a
	// record subtree, a non-record element, or a text/comment/procinst
	// node, in document order. The node is detached (Parent nil);
	// namespace prefixes were resolved against the live ancestor chain
	// while the subtree was being built.
	EventItem
	// EventRootClose reports the document element's end tag. Items after
	// this are document-level trailer misc.
	EventRootClose
)

// StreamEvent is one step of a streamed parse.
type StreamEvent struct {
	Kind StreamEventKind
	Node *Node
}

// streamState tracks where the parser is relative to the document
// element.
type streamState uint8

const (
	beforeRoot streamState = iota
	inRoot
	afterRoot
)

// StreamParser incrementally parses a document, emitting completed
// top-level subtrees instead of one big tree. Memory is bounded by the
// largest single top-level child, not the document.
type StreamParser struct {
	s      *scanner
	root   *Node
	state  streamState
	eof    bool
	finErr error
	queue  []StreamEvent
}

// NewStreamParser builds a streaming parser over r with the same
// options — and the same semantics — as Parse.
func NewStreamParser(r io.Reader, opts ParseOptions) *StreamParser {
	return &StreamParser{s: newScanner(r, newTokenBuilder(opts, false))}
}

// Root returns the document element node once EventRootOpen has been
// emitted (nil before). Its attributes carry the in-scope namespace
// declarations for every item.
func (p *StreamParser) Root() *Node { return p.root }

// Next returns the next event, or io.EOF after the document completed
// cleanly. Any other error is fatal: a malformed document, a depth-cap
// violation, or the underlying reader's own failure (which is surfaced
// in the error chain, not masked as a syntax error).
func (p *StreamParser) Next() (StreamEvent, error) {
	for {
		if len(p.queue) > 0 {
			ev := p.queue[0]
			p.queue = p.queue[1:]
			return ev, nil
		}
		if p.finErr != nil {
			return StreamEvent{}, p.finErr
		}
		if p.eof {
			return StreamEvent{}, io.EOF
		}
		err := p.s.next()
		if err == io.EOF {
			p.eof = true
			if _, ferr := p.s.b.finish(); ferr != nil {
				p.finErr = p.finishError(ferr)
				return StreamEvent{}, p.finErr
			}
			p.harvest()
			continue
		}
		if err != nil {
			p.finErr = err
			return StreamEvent{}, err
		}
		p.harvest()
	}
}

// finishError maps a well-formedness failure at EOF: when the reader
// itself failed, that failure is the root cause of the truncation.
func (p *StreamParser) finishError(ferr error) error {
	if p.s.tr.err != nil {
		return parseError(ferr, p.s.tr)
	}
	return ferr
}

// harvest moves completed nodes out of the builder's tree into the
// event queue. The invariant it relies on: only the *last* child of a
// parent can still be growing — an element until the cursor leaves it,
// a text node until a non-text token arrives.
func (p *StreamParser) harvest() {
	doc := p.s.b.doc
	// Document-level children. Whitespace text never survives at this
	// level and non-whitespace text is a builder error, so every
	// non-element child (kept comment / procinst) is complete the token
	// it appears. The element child is the document element.
	keep := doc.Children[:0]
	for _, c := range doc.Children {
		if c.Kind != ElementNode {
			c.Parent = nil
			p.queue = append(p.queue, StreamEvent{Kind: EventDocItem, Node: c})
			continue
		}
		if p.state == beforeRoot {
			p.root = c
			p.state = inRoot
			p.queue = append(p.queue, StreamEvent{Kind: EventRootOpen, Node: c})
		}
		keep = append(keep, c)
	}
	doc.Children = keep

	if p.state != inRoot {
		return
	}
	rootClosed := p.s.b.cur == doc
	p.emitRootChildren(rootClosed)
	if rootClosed {
		p.queue = append(p.queue, StreamEvent{Kind: EventRootClose})
		p.state = afterRoot
		// Drop the (now childless) root element from the document's
		// child list so the retained skeleton stays O(1). The root node
		// itself lives on as the namespace context of emitted items.
		kept := doc.Children[:0]
		for _, c := range doc.Children {
			if c != p.root {
				kept = append(kept, c)
			}
		}
		doc.Children = kept
	}
}

// emitRootChildren streams out the root's completed children. When the
// root is still open, the last child is withheld if it could still
// grow: the cursor is inside it (an unclosed element), or it is a text
// node that later character data may merge into.
func (p *StreamParser) emitRootChildren(rootClosed bool) {
	root := p.root
	n := len(root.Children)
	if n == 0 {
		return
	}
	complete := n
	if !rootClosed {
		last := root.Children[n-1]
		cursorInsideLast := p.s.b.cur != root // cursor is below the root, i.e. inside the open last child
		if cursorInsideLast || last.Kind == TextNode {
			complete = n - 1
		}
	}
	if complete <= 0 {
		return
	}
	for _, c := range root.Children[:complete] {
		// Emit detached: namespace resolution already happened during
		// construction, and a detached node can be re-parented by a
		// concurrent consumer without touching this parser's tree.
		c.Parent = nil
		p.queue = append(p.queue, StreamEvent{Kind: EventItem, Node: c})
	}
	root.Children = append(root.Children[:0], root.Children[complete:]...)
}
