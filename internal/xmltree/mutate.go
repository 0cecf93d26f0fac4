package xmltree

import "fmt"

// AppendChild attaches child as the last child of n. A child already
// attached elsewhere is detached first. Appending a node to one of its own
// descendants panics: that would create a cycle and is always a
// programming error.
func (n *Node) AppendChild(child *Node) {
	n.InsertChildAt(len(n.Children), child)
}

// PrependChild attaches child as the first child of n.
func (n *Node) PrependChild(child *Node) {
	n.InsertChildAt(0, child)
}

// InsertChildAt attaches child at position i among n's children
// (0 <= i <= len(n.Children)). A child already attached elsewhere is
// detached first.
func (n *Node) InsertChildAt(i int, child *Node) {
	if child == nil {
		panic("xmltree: InsertChildAt with nil child")
	}
	if child == n || child.IsAncestorOf(n) {
		panic("xmltree: InsertChildAt would create a cycle")
	}
	if child.Parent != nil {
		child.Detach()
	}
	if i < 0 || i > len(n.Children) {
		panic(fmt.Sprintf("xmltree: InsertChildAt index %d out of range [0,%d]", i, len(n.Children)))
	}
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = child
	child.Parent = n
}

// InsertAfter attaches child immediately after ref among n's children.
// It reports whether ref was found.
func (n *Node) InsertAfter(ref, child *Node) bool {
	for i, c := range n.Children {
		if c == ref {
			n.InsertChildAt(i+1, child)
			return true
		}
	}
	return false
}

// RemoveChild detaches child from n and reports whether it was a child.
func (n *Node) RemoveChild(child *Node) bool {
	for i, c := range n.Children {
		if c == child {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			child.Parent = nil
			return true
		}
	}
	return false
}

// ReplaceChild substitutes newChild for oldChild in place and reports
// whether oldChild was found. newChild is detached from any previous
// parent.
func (n *Node) ReplaceChild(oldChild, newChild *Node) bool {
	for i, c := range n.Children {
		if c == oldChild {
			if newChild.Parent != nil {
				newChild.Detach()
			}
			// Detaching newChild may have shifted our own children when
			// newChild was also our child; re-find oldChild.
			for j, c2 := range n.Children {
				if c2 == oldChild {
					i = j
					break
				}
			}
			n.Children[i] = newChild
			newChild.Parent = n
			oldChild.Parent = nil
			return true
		}
	}
	return false
}

// Detach removes n from its parent's child list. Detaching an already
// detached node is a no-op.
func (n *Node) Detach() {
	if n.Parent == nil {
		return
	}
	n.Parent.RemoveChild(n)
}

// RemoveChildren detaches all children of n.
func (n *Node) RemoveChildren() {
	for _, c := range n.Children {
		c.Parent = nil
	}
	n.Children = nil
}

// Normalize merges adjacent text children and removes empty text children
// throughout the subtree. Parsing already produces normalized trees;
// Normalize is useful after heavy mutation.
func (n *Node) Normalize() {
	var merged []*Node
	for _, c := range n.Children {
		if c.Kind == TextNode {
			if c.Value == "" {
				c.Parent = nil
				continue
			}
			if len(merged) > 0 && merged[len(merged)-1].Kind == TextNode {
				merged[len(merged)-1].Value += c.Value
				c.Parent = nil
				continue
			}
		}
		merged = append(merged, c)
	}
	n.Children = merged
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			c.Normalize()
		}
	}
}

// StripWhitespaceText removes text children consisting solely of XML
// whitespace from every element in the subtree. Indentation introduced by
// pretty printing is the common source of such nodes; most structural
// comparisons want it gone.
func (n *Node) StripWhitespaceText() {
	kept := n.Children[:0]
	for _, c := range n.Children {
		if c.Kind == TextNode && isAllXMLSpace(c.Value) {
			c.Parent = nil
			continue
		}
		kept = append(kept, c)
	}
	n.Children = kept
	// Clear the tail so detached nodes are not retained by the backing
	// array.
	for _, c := range n.Children {
		if c.Kind == ElementNode {
			c.StripWhitespaceText()
		}
	}
}

func isAllXMLSpace[T ~string | ~[]byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}
