"""Exception and warning types shared by the whole package."""

from __future__ import annotations


class LinlangError(Exception):
    """Base class for all errors raised by this package.

    ``span`` is a :class:`linlang.textio.SourceSpan` when the error was
    detected while parsing a text file, else ``None``.  ``subject`` is what
    the error is about when a validity check raised it: the offending name,
    or the :class:`linlang.grammar.Production` with a terminal head or a
    non-linear body.
    """

    def __init__(self, message: str, span=None, subject=None):
        super().__init__(message)
        self.span = span
        self.subject = subject


# --- grammar-side errors ---

class NotLinear(LinlangError):
    """A production body contains more than one variable."""


class UnknownSymbol(LinlangError):
    """A symbol is used but not declared (or used with the wrong role)."""


class StartNotDeclared(LinlangError):
    """The start variable is missing or not a declared variable."""


class DuplicateSymbol(LinlangError):
    """A name is declared twice, or as both terminal and variable."""


class InvalidIdentifier(LinlangError):
    """A name violates the identifier rules (or is the reserved ``eps``)."""


class NotEvenLinear(LinlangError):
    """Grammar has a variable body with unequal terminal flanks."""


class NotDeterministicLinear(LinlangError):
    """Grammar fails the deterministic-linear shape or uniqueness condition."""


# --- automaton-side errors ---

class ClassOverlap(LinlangError):
    """A state is listed as both left-reading and right-reading."""


class UnknownState(LinlangError):
    """A state is referenced but not declared."""


class SymbolNotInAlphabet(LinlangError):
    """An input string contains a character outside the automaton alphabet."""


class HasLambdaMoves(LinlangError):
    """Operation defined only for lambda-free automata."""


class NotDeterminizable(LinlangError):
    """Subset construction produced a set mixing both state classes."""


class NotEven(LinlangError):
    """Automaton has a transition that stays within one state class."""


# --- other ---

class ParseError(LinlangError):
    """Malformed text in one of the file formats."""


class UnknownFixture(LinlangError):
    """No corpus fixture registered under the requested id."""


class EmptyInitialSetWarning(UserWarning):
    """The automaton has no start states and therefore accepts nothing."""
