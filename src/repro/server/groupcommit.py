"""The group-commit coordinator, which lives beside the object store
that owns it (:mod:`repro.objectstore.groupcommit`)."""

from repro.objectstore.groupcommit import GroupCommitCoordinator, GroupCommitStats  # noqa: F401
