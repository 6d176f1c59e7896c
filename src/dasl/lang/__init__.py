from .ast import (
    And,
    ArithExpr,
    AxiomDecl,
    BoolConst,
    BoolVecDecl,
    BoolVectorConst,
    Constant,
    ConstDecl,
    DataDecl,
    Equals,
    Exists,
    ExternRef,
    Forall,
    Formula,
    FuncApp,
    FuncDecl,
    Implies,
    IntLiteral,
    MlpSpec,
    Not,
    Or,
    RelApp,
    RelDecl,
    SoftSelect,
    SortDecl,
    Term,
    Theory,
    Variable,
    children,
    free_variables,
)
from .check import DuplicateDecl, SortError, UnboundSymbol, check_theory
from .lexer import LexError, Token, tokenize
from .parser import ParseError, parse_formula, parse_theory
from .printer import print_formula, print_term, print_theory

__all__ = [
    "And", "ArithExpr", "AxiomDecl", "BoolConst", "BoolVecDecl",
    "BoolVectorConst", "Constant", "ConstDecl", "DataDecl",
    "DuplicateDecl", "Equals", "Exists", "ExternRef", "Forall", "Formula",
    "FuncApp", "FuncDecl", "Implies", "IntLiteral", "LexError", "MlpSpec",
    "Not", "Or", "ParseError", "RelApp", "RelDecl", "SoftSelect", "SortDecl",
    "SortError", "Term", "Theory", "Token", "UnboundSymbol", "Variable",
    "check_theory", "children", "free_variables", "parse_formula",
    "parse_theory", "print_formula", "print_term", "print_theory", "tokenize",
]
