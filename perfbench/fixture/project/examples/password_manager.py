"""A tiny user database on the generated password-storage use case.

Secure user-password storage (Table 1, #9) is one of the paper's
flagship scenarios: PBKDF2 with a fresh random salt per user, stored as
``salt || hash``, verified in constant time.

    python examples/password_manager.py
"""

from __future__ import annotations

import tempfile

from repro.codegen import TargetProject
from repro.usecases import generate_use_case


class UserDatabase:
    """Application glue around the generated PasswordVault."""

    def __init__(self, vault) -> None:
        self._vault = vault
        self._records: dict[str, bytes] = {}

    def register(self, username: str, password: str) -> None:
        self._records[username] = self._vault.hash_password(
            bytearray(password.encode("utf-8"))
        )

    def login(self, username: str, password: str) -> bool:
        stored = self._records.get(username)
        if stored is None:
            return False
        return self._vault.verify_password(
            bytearray(password.encode("utf-8")), stored
        )


def main() -> None:
    print("generating the password-storage use case (Table 1, #9)...")
    module = generate_use_case(9)
    with tempfile.TemporaryDirectory() as scratch:
        loaded = TargetProject(scratch).write_and_load(module, "password_storage")
        database = UserDatabase(loaded.PasswordVault())

        database.register("alice", "correct horse battery staple")
        database.register("bob", "hunter2")

        checks = [
            ("alice", "correct horse battery staple", True),
            ("alice", "wrong password", False),
            ("bob", "hunter2", True),
            ("bob", "HUNTER2", False),
            ("mallory", "anything", False),
        ]
        for username, password, expected in checks:
            outcome = database.login(username, password)
            status = "accepted" if outcome else "rejected"
            print(f"login {username!r}: {status}")
            assert outcome is expected

        record = database._records["alice"]
        print(f"\nstored record for alice: salt[32] + hash[{len(record) - 32}] "
              f"= {record.hex()[:48]}...")
        assert database._records["alice"] != database._records["bob"]


if __name__ == "__main__":
    main()
